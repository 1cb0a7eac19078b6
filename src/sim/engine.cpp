#include "sim/engine.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace at::sim {

EventId Engine::schedule_slot(util::SimTime when, detail::CallbackSlot&& slot) {
  const bool boxed = slot.boxed();
  util::LockGuard lock(mu_);
  if (when < queue_.floor_time()) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  const EventId id = queue_.schedule(when, std::move(slot));
  if (boxed) {
    ++boxed_callbacks_;
  } else {
    ++inline_callbacks_;
  }
  return id;
}

bool Engine::cancel(EventId id) {
  util::LockGuard lock(mu_);
  if (!queue_.cancel(id)) {
    ++cancel_misses_;
    return false;
  }
  return true;
}

bool Engine::pop_runnable(util::SimTime until, detail::CallbackSlot& body) {
  util::SimTime fired_at = 0;
  EventId id = 0;
  {
    util::LockGuard lock(mu_);
    if (!queue_.pop_due(until, body, fired_at, id)) return false;
  }
  // Publish the clock after releasing mu_ so now() readers never contend
  // with schedulers. Relaxed is enough: only this drain loop writes — which
  // also makes the load+store increment safe (no RMW needed).
  now_.store(fired_at, std::memory_order_relaxed);
  executed_.store(executed_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  return true;
}

bool Engine::step() {
  detail::CallbackSlot body;
  if (!pop_runnable(std::numeric_limits<util::SimTime>::max(), body)) return false;
  body(*this);  // locks released: callbacks re-enter schedule_at()/cancel()
  return true;
}

std::uint64_t Engine::run_until(util::SimTime until) {
  std::uint64_t ran = 0;
  detail::CallbackSlot body;
  while (pop_runnable(until, body)) {
    body(*this);
    body.reset();
    ++ran;
  }
  {
    util::LockGuard lock(mu_);
    queue_.advance_floor(until);
  }
  if (now_.load(std::memory_order_relaxed) < until) {
    now_.store(until, std::memory_order_relaxed);
  }
  return ran;
}

std::uint64_t Engine::run() {
  std::uint64_t ran = 0;
  detail::CallbackSlot body;
  while (pop_runnable(std::numeric_limits<util::SimTime>::max(), body)) {
    body(*this);
    body.reset();
    ++ran;
  }
  return ran;
}

Engine::Stats Engine::stats() const {
  Stats out;
  {
    util::LockGuard lock(mu_);
    const detail::TimerQueue::Counters& c = queue_.counters();
    out.scheduled = c.scheduled;
    out.cancelled = c.cancelled;
    out.wheel_events = c.wheel_events;
    out.overflow_events = c.overflow_events;
    out.rebases = c.rebases;
    out.max_pending = c.max_pending;
    out.pending = queue_.live();
    out.cancel_misses = cancel_misses_;
    out.inline_callbacks = inline_callbacks_;
    out.boxed_callbacks = boxed_callbacks_;
  }
  out.executed = executed_.load(std::memory_order_relaxed);
  return out;
}

util::TextTable Engine::Stats::to_table() const {
  util::TextTable table({"counter", "value"});
  const auto row = [&table](const char* name, std::uint64_t value) {
    table.add_row({name, std::to_string(value)});
  };
  row("scheduled", scheduled);
  row("executed", executed);
  row("cancelled", cancelled);
  row("cancel_misses", cancel_misses);
  row("inline_callbacks", inline_callbacks);
  row("boxed_callbacks", boxed_callbacks);
  row("wheel_events", wheel_events);
  row("overflow_events", overflow_events);
  row("rebases", rebases);
  row("pending", pending);
  row("max_pending", max_pending);
  return table;
}

}  // namespace at::sim
