#include "net/flow.hpp"
#include "replay/background.hpp"

#include "net/cidr.hpp"
#include "sim/engine.hpp"

namespace at::replay {

util::SimTime MassScanScenario::schedule(testbed::Testbed& bed, util::SimTime start) {
  util::Rng rng(config_.seed);
  const net::Cidr internal = net::blocks::ncsa16();
  testbed::Testbed* bed_ptr = &bed;
  for (std::size_t i = 0; i < config_.probes; ++i) {
    const util::SimTime t =
        start + rng.uniform_int(0, static_cast<std::int64_t>(config_.duration) - 1);
    const net::Ipv4 target = internal.host(static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(internal.host_count()) - 2)));
    const auto port = static_cast<std::uint16_t>(rng.uniform_int(1, 10000));
    bed.engine().schedule_at(t, [bed_ptr, target, port, this](sim::Engine& eng) {
      net::Flow flow;
      flow.ts = eng.now();
      flow.src = config_.scanner;
      flow.dst = target;
      flow.src_port = 54321;
      flow.dst_port = port;
      flow.state = net::ConnState::kAttempt;
      bed_ptr->inject_flow(flow);
    });
  }
  return start + config_.duration;
}

util::SimTime BruteforceScenario::schedule(testbed::Testbed& bed, util::SimTime start) {
  if (bed.postgres().empty()) return start;
  const net::Ipv4 target = bed.postgres().front()->address();
  testbed::Testbed* bed_ptr = &bed;
  for (std::size_t i = 0; i < config_.attempts; ++i) {
    const util::SimTime t = start + static_cast<util::SimTime>(i) * config_.spacing;
    bed.engine().schedule_at(t, [bed_ptr, target, this](sim::Engine& eng) {
      net::Flow flow;
      flow.ts = eng.now();
      flow.src = config_.attacker;
      flow.dst = target;
      flow.src_port = 38000;
      flow.dst_port = net::ports::kSsh;
      flow.state = net::ConnState::kRejected;
      bed_ptr->inject_flow(flow);
    });
  }
  return start + static_cast<util::SimTime>(config_.attempts) * config_.spacing;
}

util::SimTime LegitTrafficScenario::schedule(testbed::Testbed& bed, util::SimTime start) {
  util::Rng rng(config_.seed);
  const net::Cidr internal = net::blocks::ncsa16();
  testbed::Testbed* bed_ptr = &bed;
  for (std::size_t c = 0; c < config_.clients; ++c) {
    // Deterministic external client addresses (disjoint from scanners).
    const net::Ipv4 client(17, 32, static_cast<std::uint8_t>(c >> 8),
                           static_cast<std::uint8_t>(c & 0xff));
    for (std::size_t f = 0; f < config_.flows_per_client; ++f) {
      const util::SimTime t =
          start + rng.uniform_int(0, static_cast<std::int64_t>(config_.duration) - 1);
      const net::Ipv4 server = internal.host(static_cast<std::uint64_t>(
          rng.uniform_int(100, 4000)));
      const bool https = rng.bernoulli(0.7);
      bed.engine().schedule_at(t, [bed_ptr, client, server, https](sim::Engine& eng) {
        net::Flow flow;
        flow.ts = eng.now();
        flow.src = client;
        flow.dst = server;
        flow.src_port = 45678;
        flow.dst_port = https ? net::ports::kHttps : net::ports::kSsh;
        flow.state = net::ConnState::kEstablished;
        flow.bytes_out = 2048;
        flow.bytes_in = 65536;
        bed_ptr->inject_flow(flow);
      });
    }
  }
  return start + config_.duration;
}

}  // namespace at::replay
