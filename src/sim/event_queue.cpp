#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace volley {

namespace {

// 4-ary heap geometry over a 0-based flat array.
constexpr std::size_t kArity = 4;

std::size_t parent_of(std::size_t i) { return (i - 1) / kArity; }
std::size_t first_child_of(std::size_t i) { return kArity * i + 1; }

}  // namespace

std::uint64_t EventQueue::schedule_at(SimTime when, Callback fn) {
  if (when < now_)
    throw std::invalid_argument("EventQueue: cannot schedule in the past");
  if (!fn) throw std::invalid_argument("EventQueue: null callback");

  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.next_free = kNoSlot;

  heap_.push_back(Record{when, next_seq_++, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return (static_cast<std::uint64_t>(s.gen) << 32) | slot;
}

std::uint64_t EventQueue::schedule_after(SimTime delay, Callback fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

void EventQueue::cancel(std::uint64_t id) {
  // Ignores ids that already ran, were already cancelled, or were never
  // issued: in all three cases the slot's generation has moved on (or the
  // slot does not exist), so the id fails the generation check.
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.fn) return;

  // Free the closure now (cancel-heavy fault plans cancel far more than
  // they run) and retire the id. The heap record becomes dead; it is
  // skipped at pop time or swept out by compaction, whichever comes first.
  s.fn.reset();
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
  ++dead_records_;
  if (dead_records_ * 2 > heap_.size()) compact();
}

void EventQueue::sift_up(std::size_t i) {
  const Record r = heap_[i];
  while (i > 0) {
    const std::size_t p = parent_of(i);
    if (!before(r, heap_[p])) break;
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = r;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Record r = heap_[i];
  for (;;) {
    const std::size_t first = first_child_of(i);
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], r)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = r;
}

void EventQueue::pop_root() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

bool EventQueue::peek_live_root(Record& out) {
  while (!heap_.empty()) {
    const Record& top = heap_.front();
    if (!record_dead(top)) {
      out = top;
      return true;
    }
    --dead_records_;
    pop_root();
  }
  return false;
}

std::optional<SimTime> EventQueue::next_time() {
  Record r;
  if (!peek_live_root(r)) return std::nullopt;
  return r.when;
}

void EventQueue::run_record(const Record& r) {
  Slot& s = slots_[r.slot];
  // Move the callback out *before* invoking it: the callback may schedule
  // new events, which can legitimately reuse this very slot.
  Callback fn = std::move(s.fn);
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = r.slot;
  --live_;
  now_ = r.when;
  fn();
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Record& r) { return record_dead(r); });
  dead_records_ = 0;
  // Floyd heapify: sift down every internal node, deepest first. Records
  // keep their (when, seq) keys, so live-event order is unchanged.
  if (heap_.size() > 1) {
    for (std::size_t i = parent_of(heap_.size() - 1) + 1; i-- > 0;) {
      sift_down(i);
    }
  }
}

bool EventQueue::step() {
  Record r;
  if (!peek_live_root(r)) return false;
  pop_root();
  run_record(r);
  return true;
}

std::uint64_t EventQueue::run_until(SimTime horizon) {
  std::uint64_t executed = 0;
  Record r;
  while (peek_live_root(r)) {
    if (r.when > horizon) break;  // not yet due; stays in the heap
    pop_root();
    run_record(r);
    ++executed;
  }
  now_ = std::max(now_, horizon);
  return executed;
}

}  // namespace volley
