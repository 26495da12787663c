// Unit tests for the epoll reactor and its timer heap (net/reactor.h): fd
// registration and dispatch, EPOLLOUT re-arm, timer ordering /
// cancellation / far-out deadlines / cancel churn, and cross-thread wakeup.
#include "net/reactor.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace volley::net {
namespace {

struct Pipe {
  int fds[2]{-1, -1};
  Pipe() {
    EXPECT_EQ(::pipe(fds), 0);
    // Nonblocking read end so drain() terminates with EAGAIN when empty.
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int read_end() const { return fds[0]; }
  void write_byte() const {
    const char c = 'x';
    ASSERT_EQ(::write(fds[1], &c, 1), 1);
  }
  void drain() const {
    char c = 0;
    while (::read(fds[0], &c, 1) == 1) {
    }
  }
};

TEST(ReactorTest, DispatchesReadableFd) {
  Reactor r;
  Pipe p;
  int hits = 0;
  r.add_fd(p.read_end(), [&](std::uint32_t events) {
    EXPECT_TRUE(Reactor::readable(events));
    ++hits;
    char c = 0;
    ASSERT_EQ(::read(p.read_end(), &c, 1), 1);
  });
  EXPECT_EQ(r.run_once(0), 0);  // nothing pending yet
  p.write_byte();
  EXPECT_EQ(r.run_once(100), 1);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(r.run_once(0), 0);  // level-triggered, drained: quiet again
  EXPECT_EQ(r.watched_fds(), 1U);
  r.remove_fd(p.read_end());
  EXPECT_EQ(r.watched_fds(), 0U);
  p.write_byte();
  EXPECT_EQ(r.run_once(0), 0);  // deregistered fds never dispatch
  EXPECT_EQ(hits, 1);
}

TEST(ReactorTest, RemoveFdIsIdempotentAndSafeForUnknown) {
  Reactor r;
  r.remove_fd(12345);  // never added: no-op
  Pipe p;
  r.add_fd(p.read_end(), [](std::uint32_t) {});
  r.remove_fd(p.read_end());
  r.remove_fd(p.read_end());
  EXPECT_EQ(r.watched_fds(), 0U);
}

TEST(ReactorTest, UpdateHandlerSwapsDispatchTarget) {
  Reactor r;
  Pipe p;
  int first = 0;
  int second = 0;
  r.add_fd(p.read_end(), [&](std::uint32_t) {
    ++first;
    p.drain();
  });
  p.write_byte();
  r.run_once(100);
  r.update_handler(p.read_end(), [&](std::uint32_t) {
    ++second;
    p.drain();
  });
  p.write_byte();
  r.run_once(100);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(ReactorTest, WantWriteArmsEpollout) {
  Reactor r;
  Pipe p;
  // A pipe write end is writable immediately; EPOLLOUT only fires once
  // armed.
  bool writable = false;
  r.add_fd(p.fds[1], [&](std::uint32_t events) {
    if (Reactor::writable(events)) writable = true;
  });
  EXPECT_EQ(r.run_once(0), 0);  // EPOLLOUT not armed: quiet
  r.set_want_write(p.fds[1], true);
  EXPECT_GE(r.run_once(100), 1);
  EXPECT_TRUE(writable);
  writable = false;
  r.set_want_write(p.fds[1], false);
  EXPECT_EQ(r.run_once(0), 0);
  EXPECT_FALSE(writable);
}

TEST(ReactorTimerTest, FiresInDeadlineOrder) {
  Reactor r;
  std::vector<int> order;
  r.add_timer(30, [&] { order.push_back(3); });
  r.add_timer(10, [&] { order.push_back(1); });
  r.add_timer(20, [&] { order.push_back(2); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(500);
  while (order.size() < 3 && std::chrono::steady_clock::now() < deadline) {
    r.run_once(50);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(r.pending_timers(), 0U);
  EXPECT_FALSE(r.next_deadline_ms().has_value());
}

TEST(ReactorTimerTest, CancelPreventsFiring) {
  Reactor r;
  bool fired = false;
  bool kept = false;
  const auto id = r.add_timer(10, [&] { fired = true; });
  r.add_timer(20, [&] { kept = true; });
  r.cancel_timer(id);
  EXPECT_EQ(r.pending_timers(), 1U);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(500);
  while (!kept && std::chrono::steady_clock::now() < deadline) {
    r.run_once(50);
  }
  EXPECT_FALSE(fired);
  EXPECT_TRUE(kept);
  r.cancel_timer(id);      // already fired/cancelled: no-op
  r.cancel_timer(999999);  // unknown: no-op
}

TEST(ReactorTimerTest, ZeroDelayFiresOnNextTurn) {
  Reactor r;
  bool fired = false;
  r.add_timer(0, [&] { fired = true; });
  ASSERT_TRUE(r.next_deadline_ms().has_value());
  r.run_once(100);
  EXPECT_TRUE(fired);
}

TEST(ReactorTimerTest, CallbackMayArmAnotherTimer) {
  Reactor r;
  int chain = 0;
  std::function<void()> again = [&] {
    if (++chain < 3) r.add_timer(5, again);
  };
  r.add_timer(5, again);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(1000);
  while (chain < 3 && std::chrono::steady_clock::now() < deadline) {
    r.run_once(50);
  }
  EXPECT_EQ(chain, 3);
}

TEST(ReactorTimerTest, BeyondOneLapDeadlineSurvives) {
  // A far-out deadline (700 ms, past the span of the timer wheel this heap
  // replaced) stays pending while a near one fires, and never fires early.
  Reactor r;
  bool far_fired = false;
  bool near_fired = false;
  r.add_timer(700, [&] { far_fired = true; });
  r.add_timer(20, [&] { near_fired = true; });
  const auto start = std::chrono::steady_clock::now();
  while (!near_fired &&
         std::chrono::steady_clock::now() - start <
             std::chrono::milliseconds(400)) {
    r.run_once(50);
  }
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(far_fired);  // 700 ms not yet elapsed
  EXPECT_EQ(r.pending_timers(), 1U);
  // The far deadline is still tracked and correctly bounded.
  const auto due = r.next_deadline_ms();
  ASSERT_TRUE(due.has_value());
  while (!far_fired &&
         std::chrono::steady_clock::now() - start <
             std::chrono::milliseconds(2000)) {
    r.run_once(100);
  }
  EXPECT_TRUE(far_fired);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 700);  // never early
}

TEST(ReactorTimerTest, TimerNeverFiresEarly) {
  Reactor r;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point fired_at;
  bool fired = false;
  r.add_timer(50, [&] {
    fired = true;
    fired_at = std::chrono::steady_clock::now();
  });
  while (!fired && std::chrono::steady_clock::now() - start <
                       std::chrono::milliseconds(1000)) {
    r.run_once(10);
  }
  ASSERT_TRUE(fired);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(fired_at -
                                                                  start)
                .count(),
            50);
}

TEST(ReactorTimerTest, CancelChurnKeepsDeadlineAndRecordsBounded) {
  // CoordinatorNode arms a 1000 ms poll timeout per poll and cancels it
  // when the poll settles, thousands of times a second. The cancelled
  // timers must neither hide the live deadline nor pile up as records.
  Reactor r;
  bool live_fired = false;
  bool cancelled_fired = false;
  const auto live = r.add_timer(5, [&] { live_fired = true; });
  EXPECT_NE(live, 0U);  // the very first id (queue slot 0) is not 0
  const auto live_due = r.next_deadline_ms();
  ASSERT_TRUE(live_due.has_value());
  bool issued_zero = false;
  std::size_t max_records = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto id = r.add_timer(1000, [&] { cancelled_fired = true; });
    issued_zero = issued_zero || id == 0;
    r.cancel_timer(id);
    max_records = std::max(max_records, r.timer_records());
  }
  EXPECT_FALSE(issued_zero);
  EXPECT_EQ(r.pending_timers(), 1U);
  EXPECT_LE(max_records, 2 * r.pending_timers() + 1);
  EXPECT_EQ(r.next_deadline_ms(), live_due);
  r.cancel_timer(0);  // "no timer": a no-op
  EXPECT_EQ(r.pending_timers(), 1U);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(1000);
  while (!live_fired && std::chrono::steady_clock::now() < deadline) {
    r.run_once(50);
  }
  EXPECT_TRUE(live_fired);
  EXPECT_FALSE(cancelled_fired);
  EXPECT_EQ(r.pending_timers(), 0U);
  EXPECT_FALSE(r.next_deadline_ms().has_value());
}

TEST(ReactorTimerTest, TimerArmedByCallbackWaitsForALaterTurn) {
  Reactor r;
  bool outer = false;
  bool inner = false;
  r.add_timer(0, [&] {
    outer = true;
    r.add_timer(0, [&] { inner = true; });
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(1000);
  while (!outer && std::chrono::steady_clock::now() < deadline) {
    r.run_once(50);
  }
  ASSERT_TRUE(outer);
  EXPECT_FALSE(inner);  // not in the pass that armed it
  EXPECT_EQ(r.pending_timers(), 1U);
  while (!inner && std::chrono::steady_clock::now() < deadline) {
    r.run_once(50);
  }
  EXPECT_TRUE(inner);
}

TEST(ReactorTimerTest, DueTogetherFireInArmingOrderAndMayCancelEachOther) {
  Reactor r;
  std::vector<int> order;
  Reactor::TimerId victim = 0;
  r.add_timer(1, [&] {
    order.push_back(1);
    r.cancel_timer(victim);  // due in this same turn: must not run
  });
  r.add_timer(1, [&] { order.push_back(2); });
  victim = r.add_timer(1, [&] { order.push_back(3); });
  r.add_timer(1, [&] { order.push_back(4); });
  // All four are due once the sleep ends, so one turn runs them together.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(r.run_once(0), 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(r.pending_timers(), 0U);
}

TEST(ReactorTest, WakeupUnblocksFromAnotherThread) {
  Reactor r;
  std::thread poker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    r.wakeup();
  });
  const auto start = std::chrono::steady_clock::now();
  // No fds, no timers: without wakeup() this would sleep the full bound.
  r.run_once(5000);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  poker.join();
  EXPECT_LT(waited, 4000);
}

TEST(ReactorTest, RunOnceForSupportsSubMillisecondWaits) {
  Reactor r;
  const auto start = std::chrono::steady_clock::now();
  r.run_once_for(std::chrono::microseconds(300));
  const auto waited_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Just bounded sanity: returned well under a full millisecond-loop tick.
  EXPECT_LT(waited_us, 100000);
}

TEST(ReactorTest, StatsCountWakeupsEventsAndTimers) {
  Reactor r;
  Pipe p;
  r.add_fd(p.read_end(), [&](std::uint32_t) { p.drain(); });
  bool fired = false;
  r.add_timer(1, [&] { fired = true; });
  p.write_byte();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(500);
  while (!fired && std::chrono::steady_clock::now() < deadline) {
    r.run_once(20);
  }
  EXPECT_GE(r.stats().wakeups, 1);
  EXPECT_GE(r.stats().io_events, 1);
  EXPECT_GE(r.stats().timers_fired, 1);
}

}  // namespace
}  // namespace volley::net
