// Monitor layer: Zeek-style windowed detections, osquery symbolization,
// auditd mapping, and the per-host tamper model.

#include <gtest/gtest.h>

#include <ostream>

#include "alerts/taxonomy.hpp"
#include "monitors/osquery_monitor.hpp"
#include "monitors/zeek_monitor.hpp"

namespace at::monitors {
namespace {

net::Flow flow_at(util::SimTime ts, net::Ipv4 src, net::Ipv4 dst, std::uint16_t port,
                  net::ConnState state = net::ConnState::kAttempt) {
  net::Flow flow;
  flow.ts = ts;
  flow.src = src;
  flow.dst = dst;
  flow.dst_port = port;
  flow.state = state;
  return flow;
}

const net::Ipv4 kScanner(9, 9, 9, 9);
const net::Ipv4 kInternal(141, 142, 0, 50);

TEST(ZeekMonitorTest, AddressScanFiresAtThreshold) {
  alerts::BufferSink sink;
  ZeekConfig config;
  config.address_scan_threshold = 10;
  ZeekMonitor zeek(sink, config);
  for (std::uint32_t i = 0; i < 10; ++i) {
    zeek.on_flow(flow_at(100 + i, kScanner, net::Ipv4(141, 142, 1, i), 22));
  }
  ASSERT_EQ(sink.alerts().size(), 1u);
  EXPECT_EQ(sink.alerts()[0].type, alerts::AlertType::kAddressScan);
  // Only reported once per window.
  zeek.on_flow(flow_at(111, kScanner, net::Ipv4(141, 142, 1, 200), 22));
  EXPECT_EQ(sink.alerts().size(), 1u);
}

TEST(ZeekMonitorTest, PortScanFiresOnManyPorts) {
  alerts::BufferSink sink;
  ZeekConfig config;
  config.port_scan_threshold = 5;
  ZeekMonitor zeek(sink, config);
  for (std::uint16_t p = 1; p <= 5; ++p) {
    zeek.on_flow(flow_at(100 + p, kScanner, kInternal, p));
  }
  ASSERT_EQ(sink.alerts().size(), 1u);
  EXPECT_EQ(sink.alerts()[0].type, alerts::AlertType::kPortScan);
}

TEST(ZeekMonitorTest, WindowResetsCounters) {
  alerts::BufferSink sink;
  ZeekConfig config;
  config.address_scan_threshold = 10;
  config.window = 100;
  ZeekMonitor zeek(sink, config);
  // 6 targets, long pause, 6 more: never 10 within one window.
  for (std::uint32_t i = 0; i < 6; ++i) {
    zeek.on_flow(flow_at(i, kScanner, net::Ipv4(141, 142, 1, i), 22));
  }
  for (std::uint32_t i = 0; i < 6; ++i) {
    zeek.on_flow(flow_at(1000 + i, kScanner, net::Ipv4(141, 142, 2, i), 22));
  }
  EXPECT_TRUE(sink.alerts().empty());
}

TEST(ZeekMonitorTest, SshBruteforce) {
  alerts::BufferSink sink;
  ZeekConfig config;
  config.bruteforce_threshold = 5;
  ZeekMonitor zeek(sink, config);
  for (int i = 0; i < 5; ++i) {
    zeek.on_flow(flow_at(10 + i, kScanner, kInternal, net::ports::kSsh,
                         net::ConnState::kRejected));
  }
  bool saw = false;
  for (const auto& alert : sink.alerts()) {
    saw |= alert.type == alerts::AlertType::kSshBruteforce;
  }
  EXPECT_TRUE(saw);
}

TEST(ZeekMonitorTest, DbProbeAndHostNames) {
  alerts::BufferSink sink;
  ZeekMonitor zeek(sink);
  zeek.set_host_name(kInternal, "pg-0");
  zeek.on_flow(flow_at(5, kScanner, kInternal, net::ports::kPostgres));
  ASSERT_EQ(sink.alerts().size(), 1u);
  EXPECT_EQ(sink.alerts()[0].type, alerts::AlertType::kDbPortProbe);
  EXPECT_EQ(sink.alerts()[0].host, "pg-0");
  ASSERT_TRUE(sink.alerts()[0].src.has_value());
  EXPECT_EQ(*sink.alerts()[0].src, kScanner);
}

TEST(ZeekMonitorTest, BulkExfilOutbound) {
  alerts::BufferSink sink;
  ZeekConfig config;
  config.exfil_bytes_threshold = 1000;
  ZeekMonitor zeek(sink, config);
  auto flow = flow_at(5, kInternal, kScanner, 443, net::ConnState::kEstablished);
  flow.bytes_out = 5000;
  zeek.on_flow(flow);
  ASSERT_EQ(sink.alerts().size(), 1u);
  EXPECT_EQ(sink.alerts()[0].type, alerts::AlertType::kDataExfiltrationBulk);
}

TEST(ZeekMonitorTest, BeaconDetection) {
  alerts::BufferSink sink;
  ZeekMonitor zeek(sink);
  // Perfectly periodic outbound connections -> C2 beacon notice.
  for (int i = 0; i < 5; ++i) {
    zeek.on_flow(flow_at(1000 + i * 300, kInternal, kScanner, 443,
                         net::ConnState::kEstablished));
  }
  bool saw = false;
  for (const auto& alert : sink.alerts()) {
    if (alert.type == alerts::AlertType::kC2Communication) {
      saw = true;
      EXPECT_NE(alert.find_meta("beacon-period-s"), nullptr);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(ZeekMonitorTest, JitteryTrafficIsNotABeacon) {
  alerts::BufferSink sink;
  ZeekMonitor zeek(sink);
  const util::SimTime gaps[] = {10, 900, 50, 2000, 5, 700};
  util::SimTime t = 1000;
  for (const auto gap : gaps) {
    t += gap;
    zeek.on_flow(flow_at(t, kInternal, kScanner, 443, net::ConnState::kEstablished));
  }
  for (const auto& alert : sink.alerts()) {
    EXPECT_NE(alert.type, alerts::AlertType::kC2Communication);
  }
}

TEST(MonitorTamper, SilencesOnlyThatHost) {
  alerts::BufferSink sink;
  OsqueryMonitor monitor(sink);
  monitor.tamper("pg-0");
  ProcessEvent event;
  event.ts = 1;
  event.host = "pg-0";
  event.user = "postgres";
  event.cmdline = "wget http://1.2.3.4/abs.c";
  monitor.on_process(event);
  EXPECT_TRUE(sink.alerts().empty());
  EXPECT_EQ(monitor.suppressed(), 1u);

  event.host = "pg-1";
  monitor.on_process(event);
  EXPECT_EQ(sink.alerts().size(), 1u);
  monitor.restore("pg-0");
  event.host = "pg-0";
  monitor.on_process(event);
  EXPECT_EQ(sink.alerts().size(), 2u);
}

TEST(OsqueryMonitorTest, SymbolizesCommandLines) {
  alerts::BufferSink sink;
  OsqueryMonitor monitor(sink);
  ProcessEvent event;
  event.ts = 777;
  event.host = "node-1";
  event.user = "alice";
  event.cmdline = "gcc -o mod module.c";
  event.pid = 4242;
  monitor.on_process(event);
  ASSERT_EQ(sink.alerts().size(), 1u);
  const auto& alert = sink.alerts()[0];
  EXPECT_EQ(alert.type, alerts::AlertType::kCompileSource);
  EXPECT_EQ(alert.ts, 777);
  EXPECT_EQ(alert.host, "node-1");
  EXPECT_EQ(alert.origin, alerts::Origin::kOsquery);
  EXPECT_TRUE(alert.user.starts_with("user-"));  // sanitized
  ASSERT_NE(alert.find_meta("pid"), nullptr);
}

TEST(OsqueryMonitorTest, CountsUnmapped) {
  alerts::BufferSink sink;
  OsqueryMonitor monitor(sink);
  ProcessEvent event;
  event.cmdline = "ls -la";
  monitor.on_process(event);
  EXPECT_EQ(monitor.unmapped(), 1u);
  EXPECT_TRUE(sink.alerts().empty());
}

struct AuditCase {
  SyscallKind kind;
  const char* path;
  const char* detail;
  std::optional<alerts::AlertType> expected;
};

// Prints syscall and expected symbol: the default printer dumps the case's raw
// bytes, pointers included, and that dump names the test, so the name would
// change from run to run.
void PrintTo(const AuditCase& c, std::ostream* os) {
  *os << to_string(c.kind) << '_' << (c.expected ? alerts::symbol(*c.expected) : "none");
}

class AuditdMapping : public ::testing::TestWithParam<AuditCase> {};

TEST_P(AuditdMapping, MapsSyscalls) {
  alerts::BufferSink sink;
  AuditdMonitor monitor(sink);
  SyscallEvent event;
  event.ts = 1;
  event.host = "h";
  event.kind = GetParam().kind;
  event.path = GetParam().path;
  event.detail = GetParam().detail;
  monitor.on_syscall(event);
  if (GetParam().expected) {
    ASSERT_EQ(sink.alerts().size(), 1u);
    EXPECT_EQ(sink.alerts()[0].type, *GetParam().expected);
  } else {
    EXPECT_TRUE(sink.alerts().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Syscalls, AuditdMapping,
    ::testing::Values(
        AuditCase{SyscallKind::kOpen, "/etc/shadow", "", alerts::AlertType::kCredentialDump},
        AuditCase{SyscallKind::kOpen, "/home/a/.ssh/id_rsa", "",
                  alerts::AlertType::kSshKeyTheft},
        AuditCase{SyscallKind::kOpen, "/home/a/.ssh/known_hosts", "",
                  alerts::AlertType::kKnownHostsEnumeration},
        AuditCase{SyscallKind::kOpen, "/etc/hosts", "", std::nullopt},
        AuditCase{SyscallKind::kUnlink, "/var/log/auth.log", "",
                  alerts::AlertType::kLogTampering},
        AuditCase{SyscallKind::kUnlink, "/tmp/x", "", std::nullopt},
        AuditCase{SyscallKind::kExecve, "/tmp/kp", "", alerts::AlertType::kFileDroppedTmp},
        AuditCase{SyscallKind::kExecve, "/usr/bin/ls", "", std::nullopt},
        AuditCase{SyscallKind::kModuleLoad, "rootkit.ko", "",
                  alerts::AlertType::kInstallKernelModule},
        AuditCase{SyscallKind::kSetuid, "", "", alerts::AlertType::kPrivilegeEscalation},
        AuditCase{SyscallKind::kChmod, "/tmp/x", "4755",
                  alerts::AlertType::kSetuidBinaryCreated},
        AuditCase{SyscallKind::kChmod, "/tmp/x", "0644", std::nullopt},
        AuditCase{SyscallKind::kConnect, "", "1.2.3.4:443", std::nullopt}));

}  // namespace
}  // namespace at::monitors
