#pragma once
// Discrete-event simulation engine. Everything "live" in the testbed —
// scanner traffic, honeypot sessions, VM lifecycle timers, BHR TTL expiry,
// scripted attack scenarios — runs as events on one shared engine so the
// whole deployment is deterministic and replayable.
//
// The scheduler core is a calendar timing wheel over slab-allocated event
// slots (sim/timing_wheel.hpp): near events land in one-tick buckets,
// far-future events in an overflow heap, cancellation is a generation
// check plus an O(1) unlink, and callbacks up to 48 bytes are stored
// inline in the slot (sim/callback_slot.hpp) instead of a heap-allocated
// std::function. Execution order is (when, seq) — byte-identical to the
// binary-heap engine this replaced; tests/test_sim_oracle.cpp holds the
// two against each other over randomized traces.
//
// Thread safety: mu_ guards the timer queue (schedule/cancel/pop); the
// now_/executed_ mirror that observers read is a pair of relaxed atomics
// written only by the drain loop, so now() — called twice by a typical
// callback while sizing its next delay — is one load and never contends
// with another worker's schedule_at(). The queue lock is *released* while
// an event body runs: callbacks routinely re-enter schedule_at()/cancel()
// (an event chain schedules its next link from inside its own callback),
// and mu_ is non-recursive. Determinism is unchanged for the single-driver
// case: only one run()/step() caller may drive the engine at a time.

#include <atomic>
#include <cstdint>
#include <functional>

#include "sim/callback_slot.hpp"
#include "sim/timing_wheel.hpp"
#include "util/annotated_mutex.hpp"
#include "util/table.hpp"
#include "util/time_utils.hpp"

namespace at::sim {

class Engine {
 public:
  using Callback = std::function<void(Engine&)>;

  /// Monotonic counters for benches and tests; see stats().
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t cancel_misses = 0;      ///< cancel() calls that found nothing
    std::uint64_t inline_callbacks = 0;   ///< callables stored in the 48-byte slot
    std::uint64_t boxed_callbacks = 0;    ///< callables boxed via std::function
    std::uint64_t wheel_events = 0;       ///< events bucketed directly
    std::uint64_t overflow_events = 0;    ///< events routed via the far heap
    std::uint64_t rebases = 0;            ///< wheel window re-bases
    std::size_t pending = 0;              ///< live events right now
    std::size_t max_pending = 0;          ///< high-water mark of live events

    /// Two-column counter table — the snapshot-struct rendering convention
    /// shared with alerts::DaemonStats and testbed::Testbed::Stats.
    [[nodiscard]] util::TextTable to_table() const;
  };

  explicit Engine(util::SimTime start = 0) : now_(start), queue_(start) {}

  [[nodiscard]] util::SimTime now() const {
    return now_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pending() const AT_EXCLUDES(mu_) {
    util::LockGuard lock(mu_);
    return queue_.live();
  }
  [[nodiscard]] std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Schedule `fn` at absolute time `when` (>= now). Returns an id usable
  /// with cancel(). Ties run in scheduling order (stable).
  template <typename F>
  EventId schedule_at(util::SimTime when, F&& fn) {
    return schedule_slot(when, detail::CallbackSlot(std::forward<F>(fn)));
  }
  /// Schedule at now + delay.
  template <typename F>
  EventId schedule_in(util::SimTime delay, F&& fn) {
    return schedule_slot(now() + delay, detail::CallbackSlot(std::forward<F>(fn)));
  }
  /// Cancel a pending event; returns false if already run/cancelled.
  bool cancel(EventId id) AT_EXCLUDES(mu_);

  /// Run until the queue drains or `until` is passed (events at t > until
  /// stay queued). Returns the number of events executed.
  std::uint64_t run_until(util::SimTime until);
  /// Run until the queue drains entirely.
  std::uint64_t run();
  /// Execute exactly one event if any is pending; returns whether one ran.
  bool step();

  /// Snapshot of the engine's counters (the queue counters are coherent
  /// under mu_; executed is read separately and may trail pending by the
  /// event in flight).
  [[nodiscard]] Stats stats() const AT_EXCLUDES(mu_);

 private:
  EventId schedule_slot(util::SimTime when, detail::CallbackSlot&& slot) AT_EXCLUDES(mu_);

  /// Pop the next runnable event at time <= `until`; advances the queue
  /// floor and then the published clock. Returns false when nothing runs.
  /// The caller invokes `body` with the lock released.
  bool pop_runnable(util::SimTime until, detail::CallbackSlot& body) AT_EXCLUDES(mu_);

  // Published clock: written only by the drain loop (single driver),
  // relaxed-read by everyone else. Observers that need the clock coherent
  // with queue state must go through stats().
  std::atomic<util::SimTime> now_ AT_NOT_GUARDED;
  std::atomic<std::uint64_t> executed_ AT_NOT_GUARDED{0};

  mutable util::Mutex mu_;
  detail::TimerQueue queue_ AT_GUARDED_BY(mu_);
  std::uint64_t cancel_misses_ AT_GUARDED_BY(mu_) = 0;
  std::uint64_t inline_callbacks_ AT_GUARDED_BY(mu_) = 0;
  std::uint64_t boxed_callbacks_ AT_GUARDED_BY(mu_) = 0;
};

}  // namespace at::sim
