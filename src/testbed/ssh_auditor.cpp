#include "testbed/ssh_auditor.hpp"

namespace at::testbed {

bool SshAuditor::on_flow(const net::Flow& flow) {
  if (flow.dst_port != net::ports::kSsh) return false;
  if (flow.state == net::ConnState::kEstablished) return false;  // success: not audited here
  ++failures_;
  SourceState& state = sources_[flow.src.value()];
  if (state.failures == 0 || flow.ts - state.window_start > config_.window) {
    state.window_start = flow.ts;
    state.failures = 0;
  }
  if (++state.failures < config_.failure_threshold) return false;
  if (router_->is_blocked(flow.src, flow.ts)) return false;
  if (router_->block(flow.src, flow.ts, config_.block_ttl,
                     "ssh bruteforce: " + std::to_string(state.failures) + " failures",
                     "ssh-auditor")) {
    ++blocks_;
    state.failures = 0;
    return true;
  }
  return false;
}

std::size_t SshAuditor::prune(util::SimTime now) {
  // on_flow opens a new window when failures == 0 or the flow is more
  // than `window` past the start, which holds for every flow at or after
  // `now` once it holds at `now`.
  return sources_.erase_if([&](std::uint64_t, const SourceState& state) {
    return state.failures == 0 || now - state.window_start > config_.window;
  });
}

}  // namespace at::testbed
