// Discrete-event simulation core.
//
// The paper runs on an 800-VM Emulab testbed; we reproduce that scale with a
// discrete-event simulator: every monitor's sampling operation is an event
// on a virtual clock, so hundreds of tasks with different default intervals
// (15 s network, 5 s system, 1 s application) interleave exactly as they
// would on wall-clock time, at millions of events per second. The net
// runtime's Reactor keeps its timers in an EventQueue too, with
// steady-clock milliseconds as the time axis.
//
// Hot-path design (see DESIGN.md §10):
//  * the pending set is a flat 4-ary min-heap of POD records (when, seq,
//    slot, gen) — one contiguous vector, no node allocations, and the
//    shallower tree halves the cache misses of a binary heap at datacenter
//    event counts;
//  * callbacks live in a slot table next to the heap, wrapped in a
//    small-buffer-optimized `Callback` (the captures used by
//    Simulation::schedule_tick and the fault drivers fit inline, so the
//    steady-state schedule/run cycle performs zero heap allocations —
//    bench_micro_core asserts this with a global allocation counter);
//  * ids are generation-checked: cancelling destroys the callback
//    immediately and bumps the slot's generation, so stale ids can never
//    touch a recycled slot;
//  * cancelled records left in the heap are compacted away whenever they
//    outnumber the live ones (cancel-heavy fault plans used to pin dead
//    closures until their heap position was popped).
//
// Determinism: events at equal times fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so simulations are
// exactly reproducible. Compaction only removes dead records and re-heapifies
// on the same (when, seq) key, so it never reorders live events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace volley {

class EventQueue {
 public:
  /// Small-buffer-optimized, move-only `void()` callable. Callables up to
  /// kInlineCapacity bytes (and nothrow-move-constructible) are stored
  /// in-place; larger ones fall back to one heap allocation, exactly like
  /// std::function — but the inline budget is sized so every callback this
  /// codebase schedules stays on the fast path.
  class Callback {
   public:
    static constexpr std::size_t kInlineCapacity = 48;

    Callback() = default;
    Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    Callback(F&& fn) {  // NOLINT(google-explicit-constructor)
      using Fn = std::decay_t<F>;
      if constexpr (sizeof(Fn) <= kInlineCapacity &&
                    alignof(Fn) <= alignof(std::max_align_t) &&
                    std::is_nothrow_move_constructible_v<Fn>) {
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
        ops_ = &kInlineOps<Fn>;
      } else {
        *reinterpret_cast<Fn**>(static_cast<void*>(storage_)) =
            new Fn(std::forward<F>(fn));
        ops_ = &kHeapOps<Fn>;
      }
    }

    Callback(Callback&& other) noexcept { move_from(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        reset();
        move_from(other);
      }
      return *this;
    }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }
    void operator()() { ops_->invoke(storage_); }

    /// Destroys the held callable (freeing any owned captures) and leaves
    /// the callback empty.
    void reset() {
      if (ops_ != nullptr) {
        ops_->destroy(storage_);
        ops_ = nullptr;
      }
    }

    /// True when the callable spilled to a heap allocation (its captures
    /// exceeded kInlineCapacity). Exposed so benches and tests can assert
    /// the simulator's own callbacks stay inline.
    bool on_heap() const { return ops_ != nullptr && ops_->heap; }

   private:
    struct Ops {
      void (*invoke)(unsigned char* storage);
      // Move-construct into `to` and destroy the `from` state.
      void (*relocate)(unsigned char* from, unsigned char* to);
      void (*destroy)(unsigned char* storage);
      bool heap;
    };

    template <typename Fn>
    static constexpr Ops kInlineOps{
        [](unsigned char* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
        [](unsigned char* from, unsigned char* to) {
          Fn* f = std::launder(reinterpret_cast<Fn*>(from));
          ::new (static_cast<void*>(to)) Fn(std::move(*f));
          f->~Fn();
        },
        [](unsigned char* s) {
          std::launder(reinterpret_cast<Fn*>(s))->~Fn();
        },
        false};

    template <typename Fn>
    static constexpr Ops kHeapOps{
        [](unsigned char* s) {
          (**reinterpret_cast<Fn**>(static_cast<void*>(s)))();
        },
        [](unsigned char* from, unsigned char* to) {
          *reinterpret_cast<Fn**>(static_cast<void*>(to)) =
              *reinterpret_cast<Fn**>(static_cast<void*>(from));
        },
        [](unsigned char* s) {
          delete *reinterpret_cast<Fn**>(static_cast<void*>(s));
        },
        true};

    void move_from(Callback& other) noexcept {
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
    const Ops* ops_{nullptr};
  };

  /// Schedules `fn` at absolute time `when` (>= now). Returns an id that
  /// can be cancelled.
  std::uint64_t schedule_at(SimTime when, Callback fn);

  /// Schedules `fn` `delay` seconds from now.
  std::uint64_t schedule_after(SimTime delay, Callback fn);

  /// Cancels a scheduled event. The callback is destroyed immediately (its
  /// captures are freed); the heap record is skipped when popped or swept
  /// out by compaction, whichever comes first. Ids that already ran, were
  /// already cancelled, or were never issued are ignored.
  void cancel(std::uint64_t id);

  /// Runs events until the queue is empty or the horizon passes.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime horizon);

  /// Runs a single event; returns false when the queue is empty.
  bool step();

  SimTime now() const { return now_; }
  /// Time of the soonest pending event, or nullopt when none is pending.
  /// Pops cancelled records off the top on the way, hence non-const.
  std::optional<SimTime> next_time();
  /// Scheduled events that have neither run nor been cancelled.
  std::size_t pending() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Heap records currently held, live plus not-yet-compacted cancelled
  /// ones. Compaction keeps this below 2x pending() (+1), which is what the
  /// cancel-heavy regression tests assert.
  std::size_t heap_records() const { return heap_.size(); }

 private:
  /// POD heap node; the callback lives in slots_[slot]. A record is dead
  /// (cancelled) when its generation no longer matches the slot's.
  struct Record {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct Slot {
    Callback fn;
    std::uint32_t gen{0};
    std::uint32_t next_free{kNoSlot};
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static bool before(const Record& a, const Record& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  bool record_dead(const Record& r) const {
    return slots_[r.slot].gen != r.gen;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_root();
  /// Drops dead roots; returns false when no live record remains. On true,
  /// `out` is the live minimum (not yet popped).
  bool peek_live_root(Record& out);
  /// Moves the callback out, recycles the slot, advances the clock, and
  /// invokes the callback (which may schedule further events).
  void run_record(const Record& r);
  /// Sweeps dead records out of the heap and re-heapifies.
  void compact();

  std::vector<Record> heap_;  // flat 4-ary min-heap on (when, seq)
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::size_t live_{0};
  std::size_t dead_records_{0};  // cancelled records still in heap_
  SimTime now_{0.0};
  std::uint64_t next_seq_{0};
};

}  // namespace volley
