// Discrete-event core: a deterministic time-ordered event queue.
//
// Ties in time are broken by insertion sequence number, so two events
// scheduled for the same nanosecond always fire in the order they were
// scheduled. This determinism is load-bearing: every experiment in the
// repo is reproducible bit-for-bit from its seed.
//
// The queue performs no heap allocation once warm. Ordering lives in a
// 4-ary min-heap of 16-byte keys {at, seq << 24 | slot}; each callback
// lives inline in a fixed-size slot of a chunked slab, and fired slots
// return to a LIFO free list. Slots never move, so a callback may
// schedule further events while it runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/units.hpp"

namespace choir::sim {

class EventQueue {
 public:
  /// Inline storage per callback. The largest capture in the program is
  /// the controller's retry closure (72 bytes); a closure that does not
  /// fit is a compile error, never a heap fallback.
  static constexpr std::size_t kClosureBytes = 72;
  static constexpr std::size_t kClosureAlign = alignof(void*);

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Destroys every callback still pending, without running it.
  ~EventQueue();

  /// Schedule `fn` to run at absolute simulated time `at` (>= now()).
  template <class F>
  void schedule_at(Ns at, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "an event callback takes no arguments");
    static_assert(sizeof(Fn) <= kClosureBytes,
                  "event callback capture exceeds EventQueue::kClosureBytes");
    static_assert(alignof(Fn) <= kClosureAlign,
                  "event callback capture is over-aligned");
    CHOIR_EXPECT(at >= now_, "cannot schedule an event in the past");
    CHOIR_EXPECT(next_seq_ < kMaxSeq, "event sequence space exhausted");
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    if constexpr (std::is_nothrow_constructible_v<Fn, F&&>) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
    } else {
      try {
        ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      } catch (...) {
        free_.push_back(slot);
        throw;
      }
    }
    s.call = &call_closure<Fn>;
    push_key(Key{at, (next_seq_++ << kSlotBits) | slot});
  }

  /// Schedule `fn` to run `delay` ns from now.
  template <class F>
  void schedule_in(Ns delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run events until the queue drains or `until` (inclusive) is reached.
  /// Events scheduled during execution are processed if in range.
  void run_until(Ns until);

  /// Run events until the queue is empty.
  void run();

  /// Fire at most one event; returns false if the queue is empty.
  bool step();

  Ns now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t events_fired() const { return fired_; }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  /// Heap key. `seq` is unique, so (at, seq_slot) orders exactly like
  /// (at, seq): the slot index in the low bits never decides a tie.
  struct Key {
    Ns at;
    std::uint64_t seq_slot;
  };
  static bool before(const Key& a, const Key& b) {
    return a.at < b.at || (a.at == b.at && a.seq_slot < b.seq_slot);
  }

  /// `call(storage, true)` runs the closure and then destroys it (also
  /// when it throws); `call(storage, false)` only destroys it.
  using CallFn = void (*)(void* storage, bool run);
  struct Slot {
    CallFn call;
    alignas(kClosureAlign) unsigned char storage[kClosureBytes];
  };

  template <class Fn>
  static void call_closure(void* storage, bool run) {
    Fn& fn = *std::launder(static_cast<Fn*>(storage));
    struct Destroy {
      Fn& fn;
      ~Destroy() { fn.~Fn(); }
    } destroy{fn};
    if (run) fn();
  }

  Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  std::uint32_t acquire_slot() {
    if (free_.empty()) grow_slab();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void grow_slab();
  void push_key(Key key);
  void pop_key();

  std::vector<Key> heap_;  ///< 4-ary min-heap; children of i: 4i+1..4i+4
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Free slot indices; its capacity covers every slot, so returning a
  /// slot never allocates.
  std::vector<std::uint32_t> free_;
  Ns now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace choir::sim
