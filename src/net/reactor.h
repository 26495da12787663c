// Event-loop reactor + timer heap for the Volley net runtime.
//
// One Reactor instance is one event loop, and every net node runs exactly
// one: file descriptors register a handler once (persistent registration,
// no per-turn fd-vector rebuild) and are dispatched on level-triggered
// epoll readiness; millisecond timers live in the simulator's EventQueue
// (sim/event_queue.h, a 4-ary heap with O(1) generation-checked cancel and
// compaction), its time axis being steady-clock ms. A quiet loop therefore
// sleeps until the next due timer or the next byte of I/O — zero wakeups
// in between — instead of polling on a fixed tick, and finding that next
// deadline never rescans cancelled timers.
//
// Threading: everything except wakeup() is confined to the loop thread
// (the thread calling run_once). wakeup() is safe from any thread: it
// writes an eventfd registered with epoll, so another thread can nudge a
// sleeping loop (the nodes' request_stop does this).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "sim/event_queue.h"

namespace volley::net {

class Reactor {
 public:
  /// Raw epoll event mask; use readable()/writable()/hangup() to decode.
  using IoHandler = std::function<void(std::uint32_t events)>;
  /// Allocation-free for captures up to 48 bytes.
  using TimerCallback = EventQueue::Callback;
  using TimerId = std::uint64_t;

  static bool readable(std::uint32_t events);
  static bool writable(std::uint32_t events);
  /// Peer hangup or socket error — treat like readability (the next read
  /// returns 0/err) so handlers observe EOF through their normal path.
  static bool hangup(std::uint32_t events);

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // --- fd registration ----------------------------------------------------

  /// Registers `fd` (level-triggered) for readability and, when
  /// `want_write`, writability. The handler stays registered until
  /// remove_fd; re-adding an fd replaces its handler and interest set.
  void add_fd(int fd, IoHandler handler, bool want_write = false);

  /// Arms/disarms writability interest for an already-registered fd (EAGAIN
  /// backpressure: arm when a flush blocks, disarm once drained).
  void set_want_write(int fd, bool want_write);

  /// Swaps the handler of a registered fd (pending-conn -> session rebind)
  /// without touching the kernel registration.
  void update_handler(int fd, IoHandler handler);

  /// Deregisters; safe when the fd was never added or is already closed.
  /// Pending events for the fd in the current dispatch batch are skipped.
  void remove_fd(int fd);

  bool watching(int fd) const { return handlers_.count(fd) != 0; }
  std::size_t watched_fds() const { return handlers_.size(); }

  // --- timers (EventQueue heap, 1 ms resolution) --------------------------

  /// Fires `cb` once, ~delay_ms from now (never early; late only by loop
  /// dispatch time). Timers due in the same turn fire in (deadline, arming)
  /// order; one armed by a timer callback never fires in that same turn.
  /// Returns a nonzero id for cancel_timer.
  TimerId add_timer(std::int64_t delay_ms, TimerCallback cb);

  /// Cancels a pending timer (also from inside a timer callback); a no-op
  /// for unknown/already-fired ids and for 0.
  void cancel_timer(TimerId id);

  std::size_t pending_timers() const { return timers_.pending(); }

  /// Timer records held, pending plus cancelled ones not yet compacted
  /// away; stays at most 2 * pending_timers() + 1.
  std::size_t timer_records() const { return timers_.heap_records(); }

  /// Absolute steady-clock ms deadline of the soonest pending timer (the
  /// sleep bound), or nullopt when no timer is pending.
  std::optional<std::int64_t> next_deadline_ms();

  // --- loop ---------------------------------------------------------------

  /// One loop turn: sleeps until I/O, the next due timer, or `max_wait_ms`
  /// (-1: no bound beyond timers), then dispatches every ready fd and
  /// every due timer. Returns the number of I/O events + timers fired
  /// (0 on a pure timeout or wakeup()).
  int run_once(int max_wait_ms = -1);

  /// run_once with a sub-millisecond wait bound (epoll_pwait2 where the
  /// kernel offers it, millisecond epoll_wait otherwise) — the monitor's
  /// compressed tick cadence is 100s of microseconds.
  int run_once_for(std::chrono::nanoseconds max_wait);

  /// Nudges a sleeping loop from any thread (eventfd write).
  void wakeup();

  /// Steady-clock milliseconds, the timebase of add_timer deadlines.
  static std::int64_t now_ms();

  struct Stats {
    std::int64_t wakeups{0};       // wait returns (loop turns)
    std::int64_t io_events{0};     // fd events dispatched
    std::int64_t timers_fired{0};  // timer callbacks run
  };
  const Stats& stats() const { return stats_; }

 private:
  int wait_and_dispatch(std::int64_t wait_ns);

  int epoll_fd_{-1};
  int wake_fd_{-1};
  /// Shared so a dispatch in progress keeps the handler object it pinned
  /// even when the handler replaces or removes its own registration.
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;

  EventQueue timers_;  // time axis: steady-clock ms (exact in a double)

  Stats stats_;
};

}  // namespace volley::net
