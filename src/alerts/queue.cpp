#include "alerts/queue.hpp"

#include <utility>

namespace at::alerts {

DaemonAlert::~DaemonAlert() = default;

const char* category_name(std::uint32_t category) noexcept {
  switch (category) {
    case DaemonAlert::kError: return "error";
    case DaemonAlert::kVerdict: return "verdict";
    case DaemonAlert::kBhr: return "bhr";
    case DaemonAlert::kProgress: return "progress";
    case DaemonAlert::kStats: return "stats";
    case DaemonAlert::kLifecycle: return "lifecycle";
  }
  return "?";
}

const char* to_string(LifecycleAlert::Phase phase) noexcept {
  switch (phase) {
    case LifecycleAlert::Phase::kStarted: return "started";
    case LifecycleAlert::Phase::kDrained: return "drained";
    case LifecycleAlert::Phase::kStopped: return "stopped";
  }
  return "?";
}

util::TextTable DaemonStats::to_table() const {
  util::TextTable table({"counter", "value"});
  const auto row = [&table](const char* name, std::uint64_t value) {
    table.add_row({name, std::to_string(value)});
  };
  row("submitted", submitted);
  row("kept", kept);
  row("filtered", filtered);
  row("rejected", rejected);
  row("verdicts", verdicts);
  row("bhr_actions", bhr_actions);
  row("checkpoints", checkpoints);
  row("evicted_entities", evicted_entities);
  row("tracked_entities", tracked_entities);
  row("shards", shards);
  row("ring_capacity", ring_capacity);
  row("max_ring_depth", max_ring_depth);
  row("worker_parks", worker_parks);
  row("worker_wakeups", worker_wakeups);
  row("routed_through", routed_through);
  row("released_through", released_through);
  row("queue_pending", queue_pending);
  row("queue_posted", queue_posted);
  return table;
}

std::string WorkerErrorAlert::str() const {
  std::string out = util::format_datetime(ts);
  out += " error shard=";
  out += std::to_string(shard);
  out += ' ';
  out += message;
  return out;
}

std::string RingOverflowAlert::str() const {
  std::string out = util::format_datetime(ts);
  out += " overflow shard=";
  out += std::to_string(shard);
  out += " rejected_total=";
  out += std::to_string(rejected_total);
  return out;
}

std::string VerdictAlert::str() const {
  std::string out = util::format_datetime(ts);
  out += " verdict seq=";
  out += std::to_string(seq);
  out += " entity=";
  out += entity;
  out += " detector=";
  out += detector;
  out += " score=";
  out += std::to_string(score);
  if (source) {
    out += " source=";
    out += source->anonymized();
  }
  out += " reason=";
  out += reason;
  return out;
}

std::string BhrActionAlert::str() const {
  std::string out = util::format_datetime(ts);
  out += action == Action::kBlock ? " bhr block " : " bhr unblock ";
  out += source.anonymized();
  if (action == Action::kBlock) {
    out += " ttl=";
    out += std::to_string(ttl);
  }
  out += accepted ? " ok" : " refused";
  if (!reason.empty()) {
    out += " reason=";
    out += reason;
  }
  return out;
}

std::string CheckpointAlert::str() const {
  std::string out = util::format_datetime(ts);
  out += " checkpoint ordinal=";
  out += std::to_string(ordinal);
  return out;
}

std::string StatsAlert::str() const {
  std::string out = util::format_datetime(ts);
  out += " stats submitted=";
  out += std::to_string(stats.submitted);
  out += " kept=";
  out += std::to_string(stats.kept);
  out += " verdicts=";
  out += std::to_string(stats.verdicts);
  out += " tracked=";
  out += std::to_string(stats.tracked_entities);
  out += " routed_through=";
  out += std::to_string(stats.routed_through);
  out += " released_through=";
  out += std::to_string(stats.released_through);
  return out;
}

std::string LifecycleAlert::str() const {
  std::string out = util::format_datetime(ts);
  out += " lifecycle ";
  out += to_string(phase);
  return out;
}

std::vector<AlertQueue::Ptr> AlertQueue::drain(std::uint32_t category_mask) {
  util::LockGuard lock(queue_mu_);
  std::vector<Ptr> matched;
  if (category_mask == DaemonAlert::kAllCategories) {
    matched.swap(queue_);
    return matched;
  }
  std::vector<Ptr> remaining;
  remaining.reserve(queue_.size());
  for (auto& alert : queue_) {
    const auto category = static_cast<std::uint32_t>(alert->category());
    if ((category & category_mask) != 0) {
      matched.push_back(std::move(alert));
    } else {
      remaining.push_back(std::move(alert));
    }
  }
  queue_.swap(remaining);
  return matched;
}

}  // namespace at::alerts
