#include "testbed/testbed.hpp"

#include <algorithm>
#include <array>

#include "testbed/deployed.hpp"
#include "vrt/snapshot.hpp"

namespace at::testbed {

Testbed::Testbed(TestbedConfig config, const incidents::Corpus& training)
    : config_(config), vms_(config.lifecycle), sandbox_(config.sandbox) {
  pipeline_ = std::make_unique<AlertPipeline>(config_.pipeline, &router_);

  // The deployed detector stack, trained on the corpus, per entity.
  for (auto& [name, factory] :
       deployed_detectors(train_model(training), config_.fg_threshold)) {
    pipeline_->add_detector(std::move(name), std::move(factory));
  }

  // Monitors feed the correlator (cross-monitor dedup), which feeds the
  // pipeline.
  correlator_ = std::make_unique<AlertCorrelator>(config_.correlator, *pipeline_);
  ssh_auditor_ = std::make_unique<SshAuditor>(config_.ssh_auditor, router_);
  zeek_ = std::make_unique<monitors::ZeekMonitor>(*correlator_, config_.zeek);
  osquery_ = std::make_unique<monitors::OsqueryMonitor>(*correlator_);
  auditd_ = std::make_unique<monitors::AuditdMonitor>(*correlator_);
}

void Testbed::deploy(util::SimTime now) {
  vms_.provision_entry_points(now);
  credentials_.add_defaults();
  credentials_.leak(LeakChannel::kSocialMedia, now);
  credentials_.leak(LeakChannel::kGitCommit, now);
  credentials_.leak(LeakChannel::kPasteSite, now);

  postgres_.clear();
  ssh_.clear();
  for (const auto& instance : vms_.instances()) {
    postgres_.push_back(std::make_unique<PostgresHoneypot>(
        instance.hostname, instance.address, credentials_, hooks()));
    // The SSH service shares the instance's hostname so host-keyed entity
    // streams see database and shell activity as one timeline.
    ssh_.push_back(
        std::make_unique<SshHoneypot>(instance.hostname, instance.address, hooks()));
    zeek_->set_host_name(instance.address, instance.hostname);
  }
  // Seed cross-instance known_hosts so lateral movement has a topology to
  // crawl (the "distributed federation of databases").
  for (std::size_t i = 0; i < postgres_.size(); ++i) {
    std::vector<std::string> peers;
    for (std::size_t j = 0; j < postgres_.size(); ++j) {
      if (j != i) peers.push_back(postgres_[j]->host());
    }
    postgres_[i]->seed_known_hosts(std::move(peers));
  }
}

bool Testbed::inject_flow(const net::Flow& flow) {
  if (router_.filter(flow)) return false;
  return process_admitted(flow);
}

std::size_t Testbed::inject_flows(std::span<const net::Flow> flows) {
  std::array<std::uint8_t, kInjectChunk> verdicts;
  std::size_t delivered = 0;
  for (std::size_t at = 0; at < flows.size(); at += verdicts.size()) {
    const std::size_t m = std::min(verdicts.size(), flows.size() - at);
    router_.filter_batch(flows.subspan(at, m),
                         std::span<std::uint8_t>(verdicts.data(), m));
    for (std::size_t i = 0; i < m; ++i) {
      if (verdicts[i] != 0) continue;  // dropped at the BHR
      if (process_admitted(flows[at + i])) ++delivered;
    }
  }
  return delivered;
}

bool Testbed::process_admitted(const net::Flow& flow) {
  // Every attempt against the protected space feeds the BHR's scan view;
  // a honeypot's egress attempts target the outside and are not scans.
  if (flow.state != net::ConnState::kEstablished && config_.zeek.internal.contains(flow.dst)) {
    scan_recorder_.record(flow);
  }
  // Flows *originating* in the honeypot go through the egress sandbox;
  // dropped escapes are still *observed* by Zeek before the drop — the
  // iptables rules monitor new outbound connections and then discard them,
  // which is exactly how the C2 attempt was caught in Section V.
  bool delivered = true;
  if (config_.sandbox.honeypot_segment.contains(flow.src) ||
      config_.sandbox.overlay.contains(flow.src)) {
    delivered = sandbox_.judge(flow) != EgressVerdict::kDroppedEgress;
  }
  // Continuous SSH auditing: reflexively blackholes bruteforce sources.
  if (!config_.sandbox.honeypot_segment.contains(flow.src)) {
    ssh_auditor_->on_flow(flow);
  }
  zeek_->on_flow(flow);
  return delivered;
}

void Testbed::schedule_maintenance(util::SimTime period, util::SimTime until) {
  if (period <= 0) return;
  const util::SimTime first = engine_.now() + period;
  if (first > until) return;
  engine_.schedule_at(
      first,
      [this, period, until](sim::Engine& engine) {
        ++maintenance_.ticks;
        maintenance_.blocks_expired += router_.expire(engine.now());
        maintenance_.monitor_state_pruned += zeek_->prune_idle(engine.now());
        maintenance_.auditor_sources_pruned += ssh_auditor_->prune(engine.now());
        // Re-arm as a chain event so the chain dies at `until` and run()
        // can drain.
        const util::SimTime next = engine.now() + period;
        if (next <= until) schedule_maintenance(period, until);
      });
}

VulnerableService* Testbed::add_vulnerable_service(const std::string& package,
                                                   const std::string& yyyymmdd,
                                                   util::SimTime now) {
  static const vrt::SnapshotArchive archive;
  const vrt::ContainerBuilder builder(archive);
  auto build = builder.build(package, yyyymmdd);
  if (!build.success) return nullptr;
  const auto vm = vms_.scale_up(now);
  if (!vm) return nullptr;
  const Instance* instance = vms_.find(*vm);
  services_.push_back(std::make_unique<VulnerableService>(
      instance->hostname, instance->address, std::move(build), hooks()));
  zeek_->set_host_name(instance->address, instance->hostname);
  return services_.back().get();
}

Testbed::Stats Testbed::stats() const {
  Stats out;
  const sim::Engine::Stats engine = engine_.stats();
  out.events_executed = engine.executed;
  out.events_pending = engine.pending;
  out.alerts_received = correlator_->received();
  out.alerts_forwarded = correlator_->forwarded();
  out.alerts_in = pipeline_->alerts_in();
  out.alerts_kept = pipeline_->alerts_after_filter();
  out.notifications = pipeline_->notifications().size();
  out.tracked_entities = pipeline_->tracked_entities();
  out.evicted_entities = pipeline_->evicted_entities();
  out.active_blocks = router_.active_blocks(engine_.now());
  out.dropped_flows = router_.dropped_flows();
  out.maintenance_ticks = maintenance_.ticks;
  return out;
}

util::TextTable Testbed::Stats::to_table() const {
  util::TextTable table({"counter", "value"});
  const auto row = [&table](const char* name, std::uint64_t value) {
    table.add_row({name, std::to_string(value)});
  };
  row("events_executed", events_executed);
  row("events_pending", events_pending);
  row("alerts_received", alerts_received);
  row("alerts_forwarded", alerts_forwarded);
  row("alerts_in", alerts_in);
  row("alerts_kept", alerts_kept);
  row("notifications", notifications);
  row("tracked_entities", tracked_entities);
  row("evicted_entities", evicted_entities);
  row("active_blocks", active_blocks);
  row("dropped_flows", dropped_flows);
  row("maintenance_ticks", maintenance_ticks);
  return table;
}

ServiceHooks Testbed::hooks() {
  ServiceHooks hooks;
  hooks.on_flow = [this](const net::Flow& flow) { inject_flow(flow); };
  hooks.on_process = [this](const monitors::ProcessEvent& event) {
    osquery_->on_process(event);
  };
  hooks.on_syscall = [this](const monitors::SyscallEvent& event) {
    auditd_->on_syscall(event);
  };
  return hooks;
}

}  // namespace at::testbed
