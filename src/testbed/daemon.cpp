#include "testbed/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

namespace at::testbed {

namespace {

// Idle-worker spin: an idle worker keeps polling its ring, yielding between
// polls, for about one park/wake round trip before it parks on its shard's
// wake epoch. Bounded by time, not by poll count: a yield takes from a
// fraction of a microsecond to a whole time slice depending on load. Dense
// feeds mostly land inside the spin and cost the submitter no futex wake;
// sparse ones park, so an idle daemon costs no CPU.
constexpr std::chrono::microseconds kSpinBudget{25};

}  // namespace

const char* to_string(SubmitResult result) noexcept {
  switch (result) {
    case SubmitResult::kAccepted: return "accepted";
    case SubmitResult::kFiltered: return "filtered";
    case SubmitResult::kRejected: return "rejected";
    case SubmitResult::kStopped: return "stopped";
  }
  return "?";
}

DetectionDaemon::DetectionDaemon(DaemonConfig config, bhr::BlackHoleRouter* router)
    : config_(config), router_(router), filter_(config.pipeline.scan_filter_window) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.ring_capacity < 2) config_.ring_capacity = 2;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_));
  }
}

DetectionDaemon::~DetectionDaemon() { stop(); }

void DetectionDaemon::add_detector(std::string name, DetectorFactory factory) {
  util::LockGuard lock(mu_);
  factories_.emplace_back(std::move(name), std::move(factory));
}

void DetectionDaemon::start() {
  util::LockGuard lock(mu_);
  if (accepting_) ensure_started();
}

void DetectionDaemon::ensure_started() {
  if (started_) return;
  started_ = true;
  running_.store(true, std::memory_order_release);
  workers_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back(
        [this, i, &factories = factories_]() { worker_loop(i, factories); });
  }
  auto started = std::make_unique<alerts::LifecycleAlert>();
  started->ts = last_ts_;
  started->phase = alerts::LifecycleAlert::Phase::kStarted;
  queue_.post(std::move(started));
}

void DetectionDaemon::stop() {
  {
    util::LockGuard lock(mu_);
    if (!accepting_) return;
    accepting_ = false;
  }
  drain_idle();
  // seq_cst store before the epoch bumps: a worker whose ticket predates a
  // bump returns from its wait; one whose ticket read the bump also sees
  // stop_ in its post-park re-check.
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    shard->wake_epoch.fetch_add(1, std::memory_order_seq_cst);
    shard->wake_epoch.notify_all();
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  util::SimTime ts = 0;
  {
    util::LockGuard lock(mu_);
    ts = last_ts_;
  }
  auto snapshot = std::make_unique<alerts::StatsAlert>();
  snapshot->ts = ts;
  snapshot->stats = stats();
  queue_.post(std::move(snapshot));
  auto stopped = std::make_unique<alerts::LifecycleAlert>();
  stopped->ts = ts;
  stopped->phase = alerts::LifecycleAlert::Phase::kStopped;
  queue_.post(std::move(stopped));
  running_.store(false, std::memory_order_release);
}

void DetectionDaemon::broadcast_checkpoint(util::SimTime ts) {
  ++checkpoints_count_;
  {
    util::LockGuard lock(merge_mu_);
    checkpoint_ts_.push_back(ts);
  }
  for (auto& shard : shards_) {
    InOp op;
    op.is_checkpoint = true;
    op.checkpoint_ts = ts;
    // Checkpoints are rare (one per eviction_check_every submits), so their
    // wakes happen here under mu_ rather than being carried to the caller.
    if (push_spin(*shard, std::move(op))) wake(*shard);
  }
}

bool DetectionDaemon::push_spin(Shard& shard, InOp&& op) {
  while (!shard.in.try_push(std::move(op))) {
    // The worker is behind (possibly stalled on a full outbound ring):
    // release verdicts so it can make progress, then let it run.
    pump();
    std::this_thread::yield();
  }
  // Store→load pair of the eventcount: this seq_cst increment, then the
  // seq_cst load of parked. The worker stores parked, then loads
  // pushed_entries; at least one side sees the other, so a worker never
  // sleeps on a pushed entry. The plain load keeps the RMW off the common
  // path where the worker is awake; the exchange claims the wake once per
  // park episode when several pushes race it.
  shard.pushed_entries.fetch_add(1, std::memory_order_seq_cst);
  return shard.parked.load(std::memory_order_seq_cst) &&
         shard.parked.exchange(false, std::memory_order_seq_cst);
}

void DetectionDaemon::wake(Shard& shard) {
  shard.wakeups.fetch_add(1, std::memory_order_relaxed);
  // seq_cst: notify_one() skips the futex syscall when it reads no waiter
  // registered, a load that must not pass this store.
  shard.wake_epoch.fetch_add(1, std::memory_order_seq_cst);
  shard.wake_epoch.notify_one();
}

SubmitResult DetectionDaemon::route(std::string_view host,
                                    const std::optional<net::Ipv4>& src,
                                    std::string_view user, alerts::AlertType type,
                                    util::SimTime ts, InOp& op, Shard*& to_wake) {
  if (!accepting_) return SubmitResult::kStopped;
  ensure_started();
  Shard& shard = *shards_[EntityRef::of(host, src, user).hash() % shards_.size()];
  // Capacity check before any counter/filter mutation: a rejected submit
  // must be a pure no-op so the caller can retry the same alert without
  // double-counting. Worst case this alert needs one slot for itself plus
  // one for a broadcast checkpoint it triggers.
  if (!shard.in.has_free_slots(2)) {
    shard.rejected.fetch_add(1, std::memory_order_relaxed);
    if (!shard.overflowed) {
      // Edge-triggered warning: one per overflow episode, not per reject.
      shard.overflowed = true;
      std::uint64_t total = 0;
      for (const auto& s : shards_) total += s->rejected.load(std::memory_order_relaxed);
      auto overflow = std::make_unique<alerts::RingOverflowAlert>();
      overflow->ts = ts;
      overflow->shard = shard.index;
      overflow->rejected_total = total;
      queue_.post(std::move(overflow));
    }
    return SubmitResult::kRejected;
  }
  shard.overflowed = false;
  ++alerts_in_;
  if (ts > last_ts_) last_ts_ = ts;
  if (!filter_.keep(type, ts, src, host)) return SubmitResult::kFiltered;
  ++alerts_kept_;
  if (eviction_due(config_.pipeline, alerts_in_)) {
    // Global eviction checkpoint, the serial pipeline's schedule: timed at
    // this alert's ts and ordered before it. The broadcast may have
    // consumed the slot the capacity check reserved for this op in other
    // shards, but never the target's second reserved slot.
    broadcast_checkpoint(ts);
  }
  const std::uint64_t seq = alerts_kept_;
  op.seq = seq;
  if (push_spin(shard, std::move(op))) {
    to_wake = &shard;
    // Idle hint: a parked shard that finished its previous op has nothing
    // below seq pending, so it need not hold the frontier back until its
    // worker wakes and takes this op. The claim alone does not prove it:
    // a worker can publish parked, find an older entry in its re-check
    // and abort the park; hence the done_through read, after the claim's
    // seq_cst exchange. Only a claimed wake reads the worker's line, so
    // the awake (closed-loop) path pays nothing.
    if (shard.done_through.load(std::memory_order_acquire) >=
        shard.routed.load(std::memory_order_relaxed)) {
      shard.idle_hint.store(seq - 1, std::memory_order_release);
    }
  }
  // Publication order matters for the frontier: ring push, then the idle
  // hint, then the shard's routed watermark, then last_seq_. pump()
  // acquires last_seq_ first, so a frontier at seq sees the routed store
  // and any hint made with it.
  shard.routed.store(seq, std::memory_order_release);
  last_seq_.store(seq, std::memory_order_release);
  // High-water mark: the worker's counter is read only when the cached
  // bound climbs past the mark, not on every submit.
  const std::uint64_t high = shard.max_depth.load(std::memory_order_relaxed);
  if (shard.in.cached_size() > high) {
    const auto depth = static_cast<std::uint64_t>(shard.in.refresh_size());
    if (depth > high) shard.max_depth.store(depth, std::memory_order_relaxed);
  }
  return SubmitResult::kAccepted;
}

SubmitResult DetectionDaemon::submit_op(InOp& op, bool blocking) {
  for (;;) {
    Shard* to_wake = nullptr;
    SubmitResult result;
    {
      util::LockGuard lock(mu_);
      const alerts::AlertBatch* batch = op.batch;
      result = batch != nullptr
                   ? route(batch->host[op.row], batch->src_at(op.row), batch->user[op.row],
                           batch->type[op.row], batch->ts[op.row], op, to_wake)
                   : route(op.alert.host, op.alert.src, op.alert.user, op.alert.type,
                           op.alert.ts, op, to_wake);
    }
    // The futex wake happens off mu_, so it never lengthens the
    // coordinator's critical section.
    if (to_wake != nullptr) wake(*to_wake);
    if (result != SubmitResult::kRejected || !blocking) return result;
    pump();
    std::this_thread::yield();
  }
}

SubmitResult DetectionDaemon::try_submit(const alerts::Alert& alert) {
  return try_submit(alerts::Alert(alert));
}

SubmitResult DetectionDaemon::try_submit(alerts::Alert&& alert) {
  InOp op{.alert = std::move(alert)};
  const SubmitResult result = submit_op(op, false);
  // A rejected op was never pushed; hand the alert back for the retry.
  if (result == SubmitResult::kRejected) alert = std::move(op.alert);
  return result;
}

SubmitResult DetectionDaemon::try_submit(const alerts::AlertBatch& batch,
                                         std::size_t row) {
  InOp op{.batch = &batch, .row = row, .alert = {}};
  return submit_op(op, false);
}

SubmitResult DetectionDaemon::submit(alerts::Alert alert) {
  InOp op{.alert = std::move(alert)};
  return submit_op(op, true);
}

SubmitResult DetectionDaemon::submit(const alerts::AlertBatch& batch, std::size_t row) {
  InOp op{.batch = &batch, .row = row, .alert = {}};
  return submit_op(op, true);
}

void DetectionDaemon::on_alert(const alerts::Alert& alert) { submit(alert); }

void DetectionDaemon::on_alert(alerts::Alert&& alert) { submit(std::move(alert)); }

// ---------------------------------------------------------------- workers

void DetectionDaemon::worker_loop(std::size_t index, const DetectorFactories& factories) {
  using Clock = std::chrono::steady_clock;
  Shard& shard = *shards_[index];
  // Start of the current idle spin; empty while busy. Only a worker that
  // just drained work expects more soon: at start and after a wake that
  // brought nothing, the spin counts as spent and the worker parks at once.
  std::optional<Clock::time_point> idle_since = Clock::time_point{};
  for (;;) {
    if (drain_shard(shard, factories) != 0) {
      idle_since.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    const auto now = Clock::now();
    if (!idle_since) idle_since = now;
    if (now - *idle_since < kSpinBudget) {
      std::this_thread::yield();
      continue;
    }
    park(shard);
    idle_since = Clock::time_point{};
  }
}

void DetectionDaemon::park(Shard& shard) const {
  // Eventcount: ticket first, then publish parked, then re-check. A wake
  // claimed after the parked store bumps the epoch past the ticket, so the
  // wait below returns even if the bump lands before it starts.
  const std::uint32_t ticket = shard.wake_epoch.load(std::memory_order_acquire);
  shard.parked.store(true, std::memory_order_seq_cst);
  if (shard.pushed_entries.load(std::memory_order_seq_cst) ==
          shard.finished_entries.load(std::memory_order_relaxed) &&
      !stop_.load(std::memory_order_seq_cst)) {
    shard.parks.fetch_add(1, std::memory_order_relaxed);
    shard.wake_epoch.wait(ticket, std::memory_order_acquire);
  }
  // Covers the aborted park and a wake from stop(); a submitter's claim
  // already cleared it.
  shard.parked.store(false, std::memory_order_relaxed);
}

std::size_t DetectionDaemon::drain_shard(Shard& shard,
                                         const DetectorFactories& factories) AT_HOT {
  std::size_t done = 0;
  while (InOp* op = shard.in.front()) {
    if (op->is_checkpoint) {
      shard.entities.evict_idle(op->checkpoint_ts);
      shard.evicted.store(shard.entities.evicted(), std::memory_order_relaxed);
      shard.checkpoints_applied.fetch_add(1, std::memory_order_release);
    } else {
      // The ring is FIFO: every older op of this shard is done, so the
      // frontier may pass everything below this one while it runs.
      shard.done_through.store(op->seq - 1, std::memory_order_release);
      const auto emit = [&shard, seq = op->seq](Notification&& note) {
        Outbound out{seq, std::move(note)};
        while (!shard.out.try_push(std::move(out))) {
          // Outbound full: the consumer is behind. Stall this shard only;
          // its ingest ring fills next and producers see kRejected —
          // pressure ends at the edge instead of queueing inside. A
          // producer-side pump (or any consumer drain) makes room.
          std::this_thread::yield();
        }
      };
      std::optional<std::string> failure;
      try {
        if (op->batch != nullptr) {
          shard.entities.observe(factories, op->batch->materialize(op->row), emit);
        } else {
          shard.entities.observe(factories, op->alert, emit);
        }
      } catch (const std::exception& error) {
        failure = error.what();
      } catch (...) {
        failure = "unknown exception";
      }
      if (failure) {
        // The entry still counts as finished (the daemon must stay
        // drainable), and nothing is rolled back: the entity's index,
        // last_seen and last_src have advanced, the detectors ahead of the
        // thrower observed the alert and their verdicts still release; the
        // thrower and the detectors after it never see this alert.
        auto report = std::make_unique<alerts::WorkerErrorAlert>();
        report->ts = op->batch != nullptr ? op->batch->ts[op->row] : op->alert.ts;
        report->shard = shard.index;
        report->message = std::move(*failure);
        queue_.post(std::move(report));
      }
      shard.done_through.store(op->seq, std::memory_order_release);
    }
    shard.entity_count.store(shard.entities.size(), std::memory_order_relaxed);
    shard.in.pop();
    shard.finished_entries.fetch_add(1, std::memory_order_release);
    ++done;
  }
  return done;
}

// ------------------------------------------------------------------ merge

std::uint64_t DetectionDaemon::frontier() const {
  // The fence is the highest seq whose every op has finished with its
  // outbound entries visible. Per shard, bound = max(done_through,
  // idle_hint) promises exactly that for the shard's own ops at or below
  // it; both only grow, so a stale read is just a lower promise. Acquire
  // last_seq_ FIRST: its release store follows the routed store (and any
  // idle-hint store) of the op that produced it, so the routed read below
  // is at least the shard's newest op at or below the fence. A shard with
  // bound >= routed has finished all of those; any other shard caps the
  // fence at its bound. The acquire on done_through (directly, or through
  // the coordinator's acquire read before it stored idle_hint) makes the
  // finished ops' outbound entries visible to the pump.
  std::uint64_t fence = last_seq_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    const std::uint64_t routed = shard->routed.load(std::memory_order_acquire);
    const std::uint64_t bound =
        std::max(shard->done_through.load(std::memory_order_acquire),
                 shard->idle_hint.load(std::memory_order_acquire));
    if (bound < routed && bound < fence) fence = bound;
  }
  return fence;
}

void DetectionDaemon::pump() {
  util::LockGuard lock(merge_mu_);
  pump_locked();
}

void DetectionDaemon::pump_locked() {
  const std::uint64_t fence = frontier();
  merge_scratch_.clear();
  for (auto& shard : shards_) {
    while (Outbound* out = shard->out.front()) {
      if (out->seq > fence) break;
      merge_scratch_.push_back(std::move(*out));
      shard->out.pop();
    }
  }
  if (!merge_scratch_.empty()) {
    // seq is unique per kept alert and per-shard rings are seq-ordered, so
    // a stable sort reproduces the serial pipeline's exact emit order
    // (including per-op detector order).
    std::stable_sort(
        merge_scratch_.begin(), merge_scratch_.end(),
        [](const Outbound& a, const Outbound& b) { return a.seq < b.seq; });
    for (Outbound& out : merge_scratch_) {
      Notification& note = out.note;
      // A verdict that names a source black-holes it; the reason is built
      // before the notification's strings move into the released alert.
      const bool block = note.source && router_ != nullptr;
      std::string block_reason;
      if (block) block_reason = note.detector + ": " + note.reason;
      auto released = std::make_unique<alerts::VerdictAlert>();
      released->ts = note.ts;
      released->seq = out.seq;
      released->entity = std::move(note.entity);
      released->detector = std::move(note.detector);
      released->reason = std::move(note.reason);
      released->score = note.score;
      released->source = note.source;
      queue_.post(std::move(released));
      ++verdicts_;
      if (block) {
        const bool accepted = router_->block(*note.source, note.ts, config_.pipeline.block_ttl,
                                             block_reason, "attacktagger-pipeline");
        ++bhr_actions_;
        auto action = std::make_unique<alerts::BhrActionAlert>();
        action->ts = note.ts;
        action->action = alerts::BhrActionAlert::Action::kBlock;
        action->source = *note.source;
        action->ttl = config_.pipeline.block_ttl;
        action->reason = std::move(block_reason);
        action->accepted = accepted;
        queue_.post(std::move(action));
      }
    }
    merge_scratch_.clear();
  }
  // Every verdict at or below the fence is out now. A later fence can read
  // lower (a shard given a new op reopens its bound); keep the highest.
  released_through_ = std::max(released_through_, fence);
  // Checkpoint completions: ordinal k is done once every shard applied it.
  std::uint64_t applied = std::numeric_limits<std::uint64_t>::max();
  for (const auto& shard : shards_) {
    applied =
        std::min(applied, shard->checkpoints_applied.load(std::memory_order_acquire));
  }
  while (checkpoints_reported_ < applied && !checkpoint_ts_.empty()) {
    auto done = std::make_unique<alerts::CheckpointAlert>();
    done->ts = checkpoint_ts_.front();
    done->ordinal = ++checkpoints_reported_;
    checkpoint_ts_.erase(checkpoint_ts_.begin());
    queue_.post(std::move(done));
  }
}

void DetectionDaemon::drain_idle() {
  // Snapshot the drain timestamp up front so this function's lock order is
  // mu_ before merge_mu_ (via pump), same as the submit path.
  util::SimTime ts = 0;
  {
    util::LockGuard lock(mu_);
    ts = last_ts_;
  }
  for (;;) {
    std::uint64_t pushed = 0;
    for (const auto& shard : shards_) {
      pushed += shard->pushed_entries.load(std::memory_order_acquire);
    }
    std::uint64_t finished = 0;
    for (const auto& shard : shards_) {
      finished += shard->finished_entries.load(std::memory_order_acquire);
    }
    if (finished >= pushed) break;
    pump();
    std::this_thread::yield();
  }
  pump();
  post_drained_alert(ts);
}

void DetectionDaemon::post_drained_alert(util::SimTime ts) {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->finished_entries.load(std::memory_order_acquire);
  }
  util::LockGuard lock(merge_mu_);
  if (total == drained_mark_) return;  // nothing drained since the last one
  drained_mark_ = total;
  auto drained = std::make_unique<alerts::LifecycleAlert>();
  drained->ts = ts;
  drained->phase = alerts::LifecycleAlert::Phase::kDrained;
  queue_.post(std::move(drained));
}

std::vector<alerts::AlertQueue::Ptr> DetectionDaemon::drain_alerts(
    std::uint32_t category_mask) {
  pump();
  return queue_.drain(category_mask);
}

DetectionDaemon::Stats DetectionDaemon::stats() const {
  Stats stats;
  {
    util::LockGuard lock(mu_);
    stats.submitted = alerts_in_;
    stats.kept = alerts_kept_;
    stats.filtered = alerts_in_ - alerts_kept_;
    stats.checkpoints = checkpoints_count_;
  }
  stats.shards = shards_.size();
  stats.ring_capacity = shards_.empty() ? 0 : shards_.front()->in.capacity();
  for (const auto& shard : shards_) {
    stats.rejected += shard->rejected.load(std::memory_order_relaxed);
    stats.evicted_entities += shard->evicted.load(std::memory_order_relaxed);
    stats.tracked_entities += shard->entity_count.load(std::memory_order_relaxed);
    stats.max_ring_depth = std::max(stats.max_ring_depth,
                                    shard->max_depth.load(std::memory_order_relaxed));
    stats.worker_parks += shard->parks.load(std::memory_order_relaxed);
    stats.worker_wakeups += shard->wakeups.load(std::memory_order_relaxed);
  }
  {
    util::LockGuard lock(merge_mu_);
    stats.verdicts = verdicts_;
    stats.bhr_actions = bhr_actions_;
    stats.released_through = released_through_;
  }
  stats.routed_through = last_seq_.load(std::memory_order_acquire);
  stats.queue_pending = queue_.pending();
  stats.queue_posted = queue_.posted();
  return stats;
}

const incidents::ScanFilter& DetectionDaemon::filter() const {
  util::LockGuard lock(mu_);
  return filter_;
}

}  // namespace at::testbed
