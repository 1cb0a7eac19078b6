#pragma once
// CAUDIT-style continuous SSH auditing (the paper cites its predecessor:
// "Caudit: Continuous auditing of SSH servers to mitigate brute-force
// attacks", and describes this testbed as that honeypot's successor).
// The auditor watches authentication failures fleet-wide, rates each
// source, and calls the Black Hole Router automatically once a source
// crosses the bruteforce threshold — the reflexive response layer that
// keeps commodity scanning away from the detectors.

#include "bhr/bhr.hpp"
#include "net/flow.hpp"
#include "util/flat_map.hpp"

namespace at::testbed {

struct SshAuditorConfig {
  /// Failed attempts across the fleet before the source is blackholed.
  std::size_t failure_threshold = 50;
  util::SimTime window = 10 * util::kMinute;
  util::SimTime block_ttl = 6 * util::kHour;
};

class SshAuditor {
 public:
  SshAuditor(SshAuditorConfig config, bhr::BlackHoleRouter& router)
      : config_(config), router_(&router) {}

  /// Observe one SSH-port flow; returns true if this observation tripped
  /// an automatic block.
  bool on_flow(const net::Flow& flow);

  [[nodiscard]] std::uint64_t failures_seen() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t blocks_issued() const noexcept { return blocks_; }
  [[nodiscard]] std::size_t tracked_sources() const noexcept { return sources_.size(); }

  /// Drops the failure windows that can no longer count toward a block:
  /// sources with no failures and windows that have run out by `now`. For
  /// flows at or after `now` a pruned source behaves exactly as an absent
  /// one: its next failure opens a new window. Returns how many went.
  std::size_t prune(util::SimTime now);

 private:
  struct SourceState {
    util::SimTime window_start = 0;
    std::size_t failures = 0;
  };

  SshAuditorConfig config_;
  bhr::BlackHoleRouter* router_;
  util::FlatMap<SourceState> sources_;  ///< keyed by attacker address; prune()d
  std::uint64_t failures_ = 0;
  std::uint64_t blocks_ = 0;
};

}  // namespace at::testbed
