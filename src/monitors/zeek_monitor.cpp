#include "alerts/taxonomy.hpp"
#include "monitors/zeek_monitor.hpp"

#include <algorithm>
#include <cmath>

namespace at::monitors {

namespace {
constexpr std::uint64_t pair_key(net::Ipv4 src, net::Ipv4 dst) noexcept {
  return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
}

template <typename T>
void insert_distinct(std::vector<T>& set, T value) {
  if (std::find(set.begin(), set.end(), value) == set.end()) set.push_back(value);
}
}  // namespace

ZeekMonitor::ZeekMonitor(alerts::AlertSink& sink, ZeekConfig config)
    : Monitor("zeek", alerts::Origin::kZeek, sink), config_(config) {}

void ZeekMonitor::set_host_name(net::Ipv4 addr, std::string name) {
  host_names_[addr.value()] = std::move(name);
}

std::string ZeekMonitor::host_label(net::Ipv4 addr) const {
  if (const auto it = host_names_.find(addr.value()); it != host_names_.end()) {
    return it->second;
  }
  return addr.str();
}

void ZeekMonitor::roll_window(SourceState& state, util::SimTime now) const {
  if (now - state.window_start <= config_.window) return;
  state.window_start = now;
  state.destinations.clear();
  state.ports.clear();
  state.ssh_failures = 0;
  state.address_scan_reported = false;
  state.port_scan_reported = false;
  state.bruteforce_reported = false;
}

void ZeekMonitor::on_flow(const net::Flow& flow) {
  ++flows_seen_;
  const bool inbound = config_.internal.contains(flow.dst) && !config_.internal.contains(flow.src);
  const bool outbound = config_.internal.contains(flow.src) && !config_.internal.contains(flow.dst);

  if (inbound) {
    // Held across emit(): the sink chain (correlator, pipeline, BHR)
    // never re-enters on_flow, so no insert can move the state meanwhile.
    auto& state = sources_[flow.src.value()];
    if (!state.seen) {
      state.seen = true;
      state.window_start = flow.ts;
    }
    roll_window(state, flow.ts);
    state.last_seen = flow.ts;
    // Saturate: a reported set is dead until roll_window resets it.
    if (!state.address_scan_reported) insert_distinct(state.destinations, flow.dst.value());
    if (!state.port_scan_reported) insert_distinct(state.ports, flow.dst_port);

    if (!state.address_scan_reported &&
        state.destinations.size() >= config_.address_scan_threshold) {
      state.address_scan_reported = true;
      alerts::Alert alert;
      alert.ts = flow.ts;
      alert.type = alerts::AlertType::kAddressScan;
      alert.host = host_label(flow.dst);
      alert.src = flow.src;
      alert.add_meta("distinct-hosts", std::to_string(state.destinations.size()));
      emit(std::move(alert));
    }
    if (!state.port_scan_reported && state.ports.size() >= config_.port_scan_threshold) {
      state.port_scan_reported = true;
      alerts::Alert alert;
      alert.ts = flow.ts;
      alert.type = alerts::AlertType::kPortScan;
      alert.host = host_label(flow.dst);
      alert.src = flow.src;
      alert.add_meta("distinct-ports", std::to_string(state.ports.size()));
      emit(std::move(alert));
    }
    if (flow.dst_port == net::ports::kSsh && flow.state != net::ConnState::kEstablished) {
      if (++state.ssh_failures >= config_.bruteforce_threshold &&
          !state.bruteforce_reported) {
        state.bruteforce_reported = true;
        alerts::Alert alert;
        alert.ts = flow.ts;
        alert.type = alerts::AlertType::kSshBruteforce;
        alert.host = host_label(flow.dst);
        alert.src = flow.src;
        alert.add_meta("failures", std::to_string(state.ssh_failures));
        emit(std::move(alert));
      }
    }
    if (flow.dst_port == net::ports::kPostgres || flow.dst_port == net::ports::kMysql) {
      alerts::Alert alert;
      alert.ts = flow.ts;
      alert.type = alerts::AlertType::kDbPortProbe;
      alert.host = host_label(flow.dst);
      alert.src = flow.src;
      alert.add_meta("port", std::to_string(flow.dst_port));
      emit(std::move(alert));
    }
  }

  // Post-incident policy: internal-to-internal SSH sessions are lateral
  // movement candidates (added to the production ruleset after the
  // ransomware case study).
  if (config_.lateral_movement_policy && !inbound && !outbound &&
      config_.internal.contains(flow.src) && config_.internal.contains(flow.dst) &&
      flow.src != flow.dst && flow.dst_port == net::ports::kSsh &&
      flow.state == net::ConnState::kEstablished) {
    alerts::Alert alert;
    alert.ts = flow.ts;
    alert.type = alerts::AlertType::kSshLateralMove;
    alert.host = host_label(flow.dst);
    alert.src = flow.src;
    alert.add_meta("from", host_label(flow.src));
    emit(std::move(alert));
  }

  if (outbound) {
    if (flow.state == net::ConnState::kEstablished &&
        flow.bytes_out >= config_.exfil_bytes_threshold) {
      alerts::Alert alert;
      alert.ts = flow.ts;
      alert.type = alerts::AlertType::kDataExfiltrationBulk;
      alert.host = host_label(flow.src);
      alert.src = flow.dst;
      alert.add_meta("bytes", std::to_string(flow.bytes_out));
      emit(std::move(alert));
    }
    check_beacon(flow);
  }
}

std::size_t ZeekMonitor::prune_idle(util::SimTime now) {
  const util::SimTime pair_idle = kPairIdleWindows * config_.window;
  return sources_.erase_if([&](std::uint64_t, const SourceState& state) {
           return now - state.last_seen > config_.window;
         }) +
         pairs_.erase_if([&](std::uint64_t, const PairState& pair) {
           return now - pair.last_arrival > pair_idle;
         });
}

void ZeekMonitor::check_beacon(const net::Flow& flow) {
  // Held across emit(), as in on_flow.
  auto& pair = pairs_[pair_key(flow.src, flow.dst)];
  // Beacon = near-constant inter-arrival spacing over the pair's history.
  // Welford over the same sequence of gaps gives the same mean and stddev
  // as a recomputation from the full arrival list.
  if (pair.arrivals++ > 0) {
    pair.gaps.add(static_cast<double>(flow.ts - pair.last_arrival));
  }
  pair.last_arrival = flow.ts;
  if (pair.beacon_reported || pair.arrivals < kBeaconMinConnections) return;

  const util::OnlineStats& gaps = pair.gaps;
  if (gaps.mean() <= 0.0) return;
  const double rel = gaps.stddev() / gaps.mean();
  if (rel <= kBeaconJitterTolerance) {
    pair.beacon_reported = true;
    alerts::Alert alert;
    alert.ts = flow.ts;
    alert.type = alerts::AlertType::kC2Communication;
    alert.host = host_label(flow.src);
    alert.src = flow.dst;
    alert.add_meta("beacon-period-s", std::to_string(std::llround(gaps.mean())));
    alert.add_meta("connections", std::to_string(pair.arrivals));
    emit(std::move(alert));
  }
}

}  // namespace at::monitors
