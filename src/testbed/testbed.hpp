#pragma once
// The ATTACKTAGGER testbed orchestrator: wires honeypot services, the VM
// fleet, the isolation sandbox, the monitor layer, the alert pipeline with
// its detectors, and the Black Hole Router into one deployment (Fig 4).
// Attack scenarios from the replay engine drive it through the same entry
// points a live attacker would use.

#include <memory>
#include <span>
#include <vector>

#include "incidents/generator.hpp"
#include "monitors/osquery_monitor.hpp"
#include "monitors/zeek_monitor.hpp"
#include "sim/engine.hpp"
#include "testbed/correlator.hpp"
#include "testbed/credentials.hpp"
#include "testbed/lifecycle.hpp"
#include "util/annotations.hpp"
#include "testbed/pipeline.hpp"
#include "testbed/sandbox.hpp"
#include "testbed/services.hpp"
#include "testbed/ssh_auditor.hpp"
#include "testbed/vuln_service.hpp"

namespace at::testbed {

struct TestbedConfig {
  PipelineConfig pipeline;
  LifecycleConfig lifecycle;
  SandboxConfig sandbox;
  monitors::ZeekConfig zeek;
  CorrelatorConfig correlator;
  SshAuditorConfig ssh_auditor;
  /// Factor-graph posterior threshold of the deployed detector stack.
  double fg_threshold = 0.75;
  /// Has one value, the stage chain, and is read by nothing here; kept for
  /// alertbench/workloads.cpp, which forwards it to FactorGraphDetector.
  detect::FgInference fg_inference = detect::FgInference::kForwardFilter;
};

class Testbed {
 public:
  /// Build the deployment; detectors are trained from `training`.
  Testbed(TestbedConfig config, const incidents::Corpus& training);

  /// Provision the entry-point fleet and seed leak-channel credentials.
  void deploy(util::SimTime now);

  // --- components (exposed for scenarios, benches and tests) ---
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] AlertPipeline& pipeline() noexcept { return *pipeline_; }
  [[nodiscard]] const AlertPipeline& pipeline() const noexcept { return *pipeline_; }
  [[nodiscard]] AlertCorrelator& correlator() noexcept { return *correlator_; }
  [[nodiscard]] SshAuditor& ssh_auditor() noexcept { return *ssh_auditor_; }
  [[nodiscard]] bhr::BlackHoleRouter& router() noexcept { return router_; }
  [[nodiscard]] bhr::ScanRecorder& scan_recorder() noexcept { return scan_recorder_; }
  [[nodiscard]] VmManager& vms() noexcept { return vms_; }
  [[nodiscard]] NetworkSandbox& sandbox() noexcept { return sandbox_; }
  [[nodiscard]] CredentialStore& credentials() noexcept { return credentials_; }
  [[nodiscard]] monitors::ZeekMonitor& zeek() noexcept { return *zeek_; }
  [[nodiscard]] monitors::OsqueryMonitor& osquery() noexcept { return *osquery_; }
  [[nodiscard]] monitors::AuditdMonitor& auditd() noexcept { return *auditd_; }

  /// Honeypot instances (one per running entry-point VM after deploy()).
  [[nodiscard]] std::vector<std::unique_ptr<PostgresHoneypot>>& postgres() noexcept {
    return postgres_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<SshHoneypot>>& ssh() noexcept { return ssh_; }

  /// Stand up a VRT-built vulnerable service (Section IV-A): the package is
  /// built from the dated snapshot and hosted on a newly scaled VM. Returns
  /// nullptr when the fleet is at its ceiling or the build fails.
  VulnerableService* add_vulnerable_service(const std::string& package,
                                            const std::string& yyyymmdd,
                                            util::SimTime now);
  [[nodiscard]] std::vector<std::unique_ptr<VulnerableService>>& services() noexcept {
    return services_;
  }

  /// Ingest raw traffic: BHR filter -> scan recorder -> sandbox (for
  /// honeypot-originated flows) -> Zeek. Returns false if the flow was
  /// dropped at the BHR. AT_UNTRUSTED: replay scenarios push attacker
  /// traffic through this exact entry point, the way live taps would.
  bool inject_flow(const net::Flow& flow) AT_UNTRUSTED;

  /// Batched ingest: BHR verdicts are resolved through filter_batch (one
  /// epoch pin + prefetched trie descents per kInjectChunk flows), then
  /// the chunk's admitted flows run the same monitor path as inject_flow,
  /// in order. Unlike inject_flow, verdicts are fixed per chunk: a block
  /// issued mid-chunk (by the SSH auditor or the pipeline) first drops
  /// flows in the next chunk, and the rest of its own chunk is still
  /// admitted. Returns how many flows were delivered (admitted by the BHR
  /// and not eaten by the egress sandbox).
  std::size_t inject_flows(std::span<const net::Flow> flows);
  static constexpr std::size_t kInjectChunk = 256;

  /// Counters from the periodic maintenance events (see below).
  struct MaintenanceStats {
    std::uint64_t ticks = 0;             ///< maintenance events that ran
    std::uint64_t blocks_expired = 0;    ///< BHR entries reaped
    std::uint64_t monitor_state_pruned = 0;  ///< Zeek source/pair entries dropped
    std::uint64_t auditor_sources_pruned = 0;  ///< SSH auditor windows dropped
  };

  /// Schedule a bounded chain of maintenance events, one every `period`
  /// from now+period through `until`, each reaping expired BHR blocks and
  /// pruning idle Zeek window state and expired SSH auditor failure
  /// windows. A bounded chain rather than an event that re-arms itself
  /// forever, so scenarios that drain the engine with run() still
  /// terminate. Call again to extend coverage past `until`.
  void schedule_maintenance(util::SimTime period, util::SimTime until);
  [[nodiscard]] const MaintenanceStats& maintenance_stats() const noexcept {
    return maintenance_;
  }

  /// Deployment-wide counter snapshot (value-returning, named fields,
  /// to_table() — the convention shared with sim::Engine::Stats,
  /// alerts::DaemonStats and bhr::BlackHoleRouter::Stats).
  struct Stats {
    std::uint64_t events_executed = 0;   ///< sim engine drain count
    std::uint64_t events_pending = 0;
    std::uint64_t alerts_received = 0;   ///< correlator intake (monitor fan-in)
    std::uint64_t alerts_forwarded = 0;  ///< after cross-monitor dedup
    std::uint64_t alerts_in = 0;         ///< pipeline intake
    std::uint64_t alerts_kept = 0;       ///< after the periodic-scan filter
    std::uint64_t notifications = 0;
    std::uint64_t tracked_entities = 0;
    std::uint64_t evicted_entities = 0;
    std::uint64_t active_blocks = 0;     ///< BHR entries live at engine.now()
    std::uint64_t dropped_flows = 0;     ///< flows eaten by the BHR filter
    std::uint64_t maintenance_ticks = 0;

    [[nodiscard]] util::TextTable to_table() const;
  };
  [[nodiscard]] Stats stats() const;

  /// Hooks handed to honeypot services (monitor fan-in).
  [[nodiscard]] ServiceHooks hooks();

 private:
  /// Post-BHR monitor path shared by inject_flow()/inject_flows().
  bool process_admitted(const net::Flow& flow);

  TestbedConfig config_;
  sim::Engine engine_;
  bhr::BlackHoleRouter router_;
  bhr::ScanRecorder scan_recorder_;
  VmManager vms_;
  NetworkSandbox sandbox_;
  CredentialStore credentials_;
  std::unique_ptr<AlertPipeline> pipeline_;
  std::unique_ptr<AlertCorrelator> correlator_;
  std::unique_ptr<SshAuditor> ssh_auditor_;
  std::unique_ptr<monitors::ZeekMonitor> zeek_;
  std::unique_ptr<monitors::OsqueryMonitor> osquery_;
  std::unique_ptr<monitors::AuditdMonitor> auditd_;
  std::vector<std::unique_ptr<PostgresHoneypot>> postgres_;
  std::vector<std::unique_ptr<SshHoneypot>> ssh_;
  std::vector<std::unique_ptr<VulnerableService>> services_;
  MaintenanceStats maintenance_;
};

}  // namespace at::testbed
