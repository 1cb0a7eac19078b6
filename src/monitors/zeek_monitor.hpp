#pragma once
// Zeek-like network security monitor. Consumes flow records and raises the
// network-borne notices the paper's pipeline depends on: port/address
// scans, database-port probes, SSH bruteforce, C2 beaconing, and bulk
// outbound transfers. Detection state is windowed per source address, the
// way Zeek's scan.bro policy counts distinct destinations per origin.

#include <string>
#include <unordered_map>
#include <vector>

#include "monitors/monitor.hpp"
#include "net/cidr.hpp"
#include "net/flow.hpp"
#include "util/annotations.hpp"
#include "util/flat_map.hpp"
#include "util/stats.hpp"

namespace at::monitors {

struct ZeekConfig {
  /// Distinct internal destinations within the window before an address
  /// scan notice fires (Zeek default-ish).
  std::size_t address_scan_threshold = 25;
  /// Distinct ports on one destination before a port-scan notice.
  std::size_t port_scan_threshold = 15;
  /// Failed SSH attempts from one source before a bruteforce notice.
  std::size_t bruteforce_threshold = 20;
  /// Window length for all the counters.
  util::SimTime window = 5 * util::kMinute;
  /// Outbound bytes in one established flow before a bulk-exfil notice.
  std::uint64_t exfil_bytes_threshold = 512ULL << 20;  // 512 MB
  /// The protected internal block (alerts carry internal host names).
  net::Cidr internal = net::blocks::ncsa16();
  /// The post-incident policy the paper describes being added after the
  /// ransomware case study: raise a lateral-movement notice for internal->
  /// internal SSH sessions. Off by default (the pre-incident ruleset).
  bool lateral_movement_policy = false;
};

class ZeekMonitor final : public Monitor {
 public:
  ZeekMonitor(alerts::AlertSink& sink, ZeekConfig config = {});

  /// Feed one flow record; may emit zero or more notices. AT_UNTRUSTED:
  /// flows arrive straight off the taps — addresses, ports, and byte
  /// counts are attacker-chosen.
  void on_flow(const net::Flow& flow) AT_UNTRUSTED;

  /// Number of flows processed.
  [[nodiscard]] std::uint64_t flows_seen() const noexcept { return flows_seen_; }

  /// Drop per-source window state idle for more than one window and beacon
  /// pair state idle for more than kPairIdleWindows windows; returns how
  /// many entries were dropped. Source eviction is invisible to detection:
  /// an evicted source's next flow rebuilds exactly the state roll_window
  /// would have produced. Pair eviction forgets beacons whose period
  /// exceeds kPairIdleWindows * window — the bound on the number of
  /// pairs; each pair's own state is constant-size. Wired to the
  /// testbed's maintenance events so hour-long replays don't accumulate
  /// one entry per Internet-wide scanner.
  std::size_t prune_idle(util::SimTime now);

  /// Per-source window states currently tracked (for tests/benches).
  [[nodiscard]] std::size_t tracked_sources() const noexcept { return sources_.size(); }
  /// (src,dst) beacon states currently tracked.
  [[nodiscard]] std::size_t tracked_pairs() const noexcept { return pairs_.size(); }

  /// Pair state is pruned after this many windows of inactivity.
  static constexpr util::SimTime kPairIdleWindows = 8;
  /// Beacon detection: at least this many same-(src,dst) connections whose
  /// inter-arrival gaps have a relative stddev of at most the tolerance.
  static constexpr std::size_t kBeaconMinConnections = 4;
  static constexpr double kBeaconJitterTolerance = 0.2;

  /// Name an internal address (for host= fields); defaults to the dotted quad.
  void set_host_name(net::Ipv4 addr, std::string name);

  /// Enable the lateral-movement policy at runtime — the "new alerts ...
  /// incorporated into Zeek policies" feedback loop of the paper's
  /// conclusion.
  void enable_lateral_movement_policy() { config_.lateral_movement_policy = true; }

 private:
  struct SourceState {
    // Distinct destinations / ports seen in the window. A set stops
    // growing once its notice is reported: nothing reads it again before
    // roll_window clears set and flag together. So each holds at most its
    // threshold's worth of entries, and since roll_window keeps the
    // capacity, a warm source's inserts never allocate.
    std::vector<std::uint32_t> destinations;
    std::vector<std::uint16_t> ports;
    std::size_t ssh_failures = 0;
    util::SimTime window_start = 0;
    util::SimTime last_seen = 0;
    bool seen = false;                                // first-flow initialization
    bool address_scan_reported = false;
    bool port_scan_reported = false;
    bool bruteforce_reported = false;
  };
  struct PairState {
    // Running summary of the inter-arrival gaps: constant-size however
    // long the pair keeps connecting.
    util::OnlineStats gaps;
    util::SimTime last_arrival = 0;
    std::size_t arrivals = 0;
    bool beacon_reported = false;
  };

  [[nodiscard]] std::string host_label(net::Ipv4 addr) const;
  void roll_window(SourceState& state, util::SimTime now) const;
  void check_beacon(const net::Flow& flow);

  ZeekConfig config_;
  std::uint64_t flows_seen_ = 0;
  util::FlatMap<SourceState> sources_;
  util::FlatMap<PairState> pairs_;
  std::unordered_map<std::uint32_t, std::string> host_names_;
};

}  // namespace at::monitors
