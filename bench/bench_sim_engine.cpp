// Discrete-event scheduler throughput: the seed binary-heap engine
// (priority_queue + unordered_map<EventId, std::function> + one mutex,
// replicated verbatim below) vs. the timing-wheel sim::Engine, on the
// workloads the testbed actually generates:
//
//   * hot_churn    — self-rescheduling event chains with short delays and
//                    ~32-byte capture lists (replay scenarios capture a
//                    testbed pointer plus scalars, which overflows
//                    std::function's 16-byte inline buffer and heap-
//                    allocates per event on the seed path)
//   * cancel_churn — schedule waves and cancel half before they run
//                    (hash-map erase vs. generation-check unlink)
//   * far_future   — events spread over a 30-day horizon (overflow heap +
//                    window re-base vs. one big binary heap)
//
// Execution order must be byte-identical: each run folds (chain id, fire
// time) into an FNV-1a hash in execution order, and the two engines'
// hashes must match for every workload — the bench exits nonzero
// otherwise. Emits JSON (default BENCH_sim.json at the repo root).
//
// Standalone main (not google-benchmark): the artifact is a machine-
// readable JSON file, produced in one deliberate pass per workload.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "util/annotated_mutex.hpp"

#include "host_info.hpp"

namespace {

using namespace at;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- seed engine replica -------------------------------------------------

class SeedEngine {
 public:
  using Callback = std::function<void(SeedEngine&)>;

  explicit SeedEngine(util::SimTime start = 0) : now_(start) {}

  [[nodiscard]] util::SimTime now() const {
    util::LockGuard lock(mu_);
    return now_;
  }
  [[nodiscard]] std::uint64_t executed() const {
    util::LockGuard lock(mu_);
    return executed_;
  }

  sim::EventId schedule_at(util::SimTime when, Callback callback) {
    util::LockGuard lock(mu_);
    const sim::EventId id = next_id_++;
    queue_.push(Item{when, next_seq_++, id});
    callbacks_.emplace(id, std::move(callback));
    return id;
  }
  bool cancel(sim::EventId id) {
    util::LockGuard lock(mu_);
    const auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);
    ++cancelled_;
    return true;
  }
  std::uint64_t run() {
    std::uint64_t ran = 0;
    Callback body;
    while (pop_runnable(body)) {
      body(*this);
      ++ran;
    }
    return ran;
  }

 private:
  struct Item {
    util::SimTime when;
    std::uint64_t seq;
    sim::EventId id;
    bool operator>(const Item& other) const noexcept {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  bool pop_runnable(Callback& body) AT_EXCLUDES(mu_) {
    util::LockGuard lock(mu_);
    while (!queue_.empty()) {
      const Item item = queue_.top();
      const auto it = callbacks_.find(item.id);
      if (it == callbacks_.end()) {
        queue_.pop();
        --cancelled_;
        continue;
      }
      queue_.pop();
      now_ = item.when;
      body = std::move(it->second);
      callbacks_.erase(it);
      ++executed_;
      return true;
    }
    return false;
  }

  mutable util::Mutex mu_;
  util::SimTime now_ AT_GUARDED_BY(mu_);
  std::uint64_t next_seq_ AT_GUARDED_BY(mu_) = 0;
  sim::EventId next_id_ AT_GUARDED_BY(mu_) = 1;
  std::uint64_t executed_ AT_GUARDED_BY(mu_) = 0;
  std::size_t cancelled_ AT_GUARDED_BY(mu_) = 0;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_ AT_GUARDED_BY(mu_);
  std::unordered_map<sim::EventId, Callback> callbacks_ AT_GUARDED_BY(mu_);
};

// --- workloads -----------------------------------------------------------

struct WorkloadResult {
  double seconds = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t order_hash = kFnvOffset;
};

struct BenchState {
  std::uint64_t executed = 0;
  std::uint64_t budget = 0;
  std::uint64_t hash = kFnvOffset;
};

inline std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Self-rescheduling chain event. 32 bytes of capture: larger than
/// std::function's 16-byte inline buffer (the seed engine heap-allocates
/// every schedule), within sim::Engine's 48-byte inline slot.
template <typename E>
struct ChainEvent {
  BenchState* state;
  std::uint64_t rng;
  std::uint64_t chain_id;
  std::uint64_t fired = 0;

  void operator()(E& engine) {
    BenchState* s = state;
    s->hash = (s->hash ^ (chain_id * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(engine.now()))) *
              kFnvPrime;
    if (++s->executed >= s->budget) return;
    if (rng == 0) return;  // leaf event (cancel_churn / far_future): no chain
    ++fired;
    // Draw before the schedule call: the copy of *this and the rng mutation
    // must not race inside one unsequenced argument list.
    const auto next =
        engine.now() + 1 + static_cast<util::SimTime>(xorshift(rng) % 509);
    engine.schedule_at(next, *this);
  }
};

template <typename E>
WorkloadResult hot_churn(std::uint64_t events, std::size_t width) {
  const auto start = Clock::now();
  E engine(0);
  BenchState state;
  state.budget = events;
  for (std::size_t i = 0; i < width; ++i) {
    ChainEvent<E> chain{&state, 0x2545F4914F6CDD1DULL + i, i, 0};
    engine.schedule_at(1 + static_cast<util::SimTime>(i % 64), chain);
  }
  engine.run();
  return {seconds_since(start), state.executed, state.hash};
}

template <typename E>
WorkloadResult cancel_churn(std::uint64_t events) {
  const auto start = Clock::now();
  E engine(0);
  BenchState state;
  state.budget = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  std::vector<sim::EventId> wave;
  constexpr std::size_t kWave = 1024;
  wave.reserve(kWave);
  std::uint64_t chain_id = 0;
  while (state.executed < events) {
    wave.clear();
    for (std::size_t i = 0; i < kWave; ++i) {
      ChainEvent<E> leaf{&state, 0, chain_id++, 0};  // rng 0 -> no reschedule
      wave.push_back(engine.schedule_at(
          engine.now() + 1 + static_cast<util::SimTime>(xorshift(rng) % 253), leaf));
    }
    for (std::size_t i = 0; i < kWave; i += 2) engine.cancel(wave[i]);
    engine.run();
  }
  return {seconds_since(start), state.executed, state.hash};
}

template <typename E>
WorkloadResult far_future(std::uint64_t events) {
  const auto start = Clock::now();
  E engine(0);
  BenchState state;
  state.budget = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t rng = 0xD1B54A32D192ED03ULL;
  const auto horizon = static_cast<std::uint64_t>(30 * util::kDay);
  for (std::uint64_t i = 0; i < events; ++i) {
    ChainEvent<E> leaf{&state, 0, i, 0};
    engine.schedule_at(1 + static_cast<util::SimTime>(xorshift(rng) % horizon), leaf);
  }
  engine.run();
  return {seconds_since(start), state.executed, state.hash};
}

struct Comparison {
  const char* name;
  std::uint64_t events;
  WorkloadResult seed;
  WorkloadResult wheel;
  [[nodiscard]] bool identical() const {
    return seed.order_hash == wheel.order_hash && seed.executed == wheel.executed;
  }
  [[nodiscard]] double speedup() const { return seed.seconds / wheel.seconds; }
};

void report(const Comparison& c) {
  std::printf("%-12s %9llu events  seed %6.2fs (%11.0f ev/s)  wheel %6.2fs "
              "(%11.0f ev/s)  speedup %5.2fx  order %s\n",
              c.name, static_cast<unsigned long long>(c.events), c.seed.seconds,
              static_cast<double>(c.seed.executed) / c.seed.seconds, c.wheel.seconds,
              static_cast<double>(c.wheel.executed) / c.wheel.seconds, c.speedup(),
              c.identical() ? "identical" : "DIFFERS");
}

void emit_json(std::ostringstream& json, const Comparison& c, bool last) {
  json << "    {\"name\": \"" << c.name << "\", \"events\": " << c.seed.executed
       << ",\n     \"seed\": {\"seconds\": " << c.seed.seconds << ", \"events_per_s\": "
       << static_cast<double>(c.seed.executed) / c.seed.seconds
       << "},\n     \"wheel\": {\"seconds\": " << c.wheel.seconds
       << ", \"events_per_s\": "
       << static_cast<double>(c.wheel.executed) / c.wheel.seconds
       << "},\n     \"speedup\": " << c.speedup()
       << ", \"identical_order\": " << (c.identical() ? "true" : "false") << "}"
       << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 10'000'000;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--events") == 0) events = std::stoull(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }
  const std::size_t width = events >= 1'000'000 ? 65536 : 1024;

  Comparison hot{"hot_churn", events, hot_churn<SeedEngine>(events, width),
                 hot_churn<sim::Engine>(events, width)};
  report(hot);
  Comparison cancels{"cancel_churn", events / 4, cancel_churn<SeedEngine>(events / 4),
                     cancel_churn<sim::Engine>(events / 4)};
  report(cancels);
  Comparison far{"far_future", events / 8, far_future<SeedEngine>(events / 8),
                 far_future<sim::Engine>(events / 8)};
  report(far);

  // Wheel-internal counters for the headline workload (sanity: the hot
  // path must be inline-callback, wheel-resident).
  sim::Engine probe(0);
  BenchState state;
  state.budget = 4;
  ChainEvent<sim::Engine> chain{&state, 1, 0, 0};
  probe.schedule_at(1, chain);
  probe.run();
  const auto stats = probe.stats();

  const bool identical = hot.identical() && cancels.identical() && far.identical();
  std::ostringstream json;
  json << "{\n  \"bench\": \"sim_engine\",\n  \"host\": " << bench::host_json()
       << ",\n  \"events\": " << events
       << ",\n  \"workloads\": [\n";
  emit_json(json, hot, false);
  emit_json(json, cancels, false);
  emit_json(json, far, true);
  json << "  ],\n  \"hot_churn_speedup\": " << hot.speedup()
       << ",\n  \"identical_order\": " << (identical ? "true" : "false")
       << ",\n  \"chain_callback_inline\": "
       << (stats.boxed_callbacks == 0 ? "true" : "false") << "\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  return identical ? 0 : 1;
}
