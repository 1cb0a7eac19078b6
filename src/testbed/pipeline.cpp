#include "testbed/pipeline.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace at::testbed {

namespace {

// Tag constants decorrelate the three key namespaces ("host:"/"ip:"/"user:")
// before hashing so e.g. a host named like a dotted quad cannot collide
// into another entity's shard stream.
constexpr std::uint64_t kHostTag = 0x686f7374ULL;
constexpr std::uint64_t kIpTag = 0x6970ULL;
constexpr std::uint64_t kUserTag = 0x75736572ULL;

}  // namespace

bool eviction_due(const PipelineConfig& config, std::uint64_t alerts_in) noexcept {
  return config.entity_idle_ttl > 0 &&
         alerts_in % std::max<std::size_t>(1, config.eviction_check_every) == 0;
}

EntityRef EntityRef::of(std::string_view host, const std::optional<net::Ipv4>& src,
                        std::string_view user) noexcept {
  if (!host.empty()) return {Kind::kHost, host, {}};
  if (src) return {Kind::kIp, {}, *src};
  return {Kind::kUser, user, {}};
}

std::string EntityRef::key() const {
  switch (kind) {
    case Kind::kHost: return std::string("host:").append(name);
    case Kind::kIp: return "ip:" + ip.str();
    case Kind::kUser: break;
  }
  return std::string("user:").append(name);
}

std::uint64_t EntityRef::hash() const noexcept {
  switch (kind) {
    case Kind::kHost: return util::mix64(std::hash<std::string_view>{}(name) ^ kHostTag);
    case Kind::kIp: return util::mix64(static_cast<std::uint64_t>(ip.value()) ^ kIpTag);
    case Kind::kUser: break;
  }
  return util::mix64(std::hash<std::string_view>{}(name) ^ kUserTag);
}

EntityTable::EntityState& EntityTable::state_for(const DetectorFactories& factories,
                                                 const std::string& key) {
  auto it = entities_.find(key);
  if (it != entities_.end()) return it->second;
  EntityState state;
  state.detectors.reserve(factories.size());
  for (const auto& factory : factories) state.detectors.push_back(factory.second());
  return entities_.emplace(key, std::move(state)).first->second;
}

void EntityTable::evict_idle(util::SimTime now) {
  evicted_ += std::erase_if(entities_, [&](const auto& entry) {
    return now - entry.second.last_seen > idle_ttl_;
  });
}

AlertPipeline::AlertPipeline(PipelineConfig config, bhr::BlackHoleRouter* router)
    : config_(config), router_(router), filter_(config.scan_filter_window), entities_(config) {}

void AlertPipeline::add_detector(std::string name, DetectorFactory factory) {
  factories_.emplace_back(std::move(name), std::move(factory));
}

void AlertPipeline::on_alert(const alerts::Alert& alert) {
  ++alerts_in_;
  if (!filter_.keep(alert)) return;
  ++alerts_kept_;
  if (eviction_due(config_, alerts_in_)) entities_.evict_idle(alert.ts);
  entities_.observe(factories_, alert, [this](Notification&& verdict) {
    const Notification& note = notifications_.emplace_back(std::move(verdict));
    if (router_ != nullptr && note.source) {
      router_->block(*note.source, note.ts, config_.block_ttl, note.detector + ": " + note.reason,
                     "attacktagger-pipeline");
    }
  });
}

}  // namespace at::testbed
