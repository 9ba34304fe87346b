#include "sim/event_queue.hpp"

namespace choir::sim {

EventQueue::~EventQueue() {
  for (const Key& key : heap_) {
    Slot& s = slot_ref(static_cast<std::uint32_t>(key.seq_slot & kSlotMask));
    s.call(s.storage, false);
  }
}

void EventQueue::grow_slab() {
  const std::uint64_t base = std::uint64_t{chunks_.size()} << kChunkBits;
  CHOIR_EXPECT(base + kChunkSlots <= kSlotMask + 1,
               "too many pending events for the slot index");
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  free_.reserve(base + kChunkSlots);
  // Pushed in reverse so the lowest index is handed out first.
  for (std::uint32_t i = kChunkSlots; i-- > 0;) {
    free_.push_back(static_cast<std::uint32_t>(base) + i);
  }
}

void EventQueue::push_key(Key key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  Key* h = heap_.data();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = key;
}

void EventQueue::pop_key() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  Key* h = heap_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    if (!before(h[best], last)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = last;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  pop_key();
  now_ = top.at;
  ++fired_;
  const auto slot = static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
  // The slot stays claimed while its callback runs (events it schedules
  // land elsewhere) and returns to the free list even if it throws.
  struct Release {
    std::vector<std::uint32_t>& free;
    std::uint32_t slot;
    ~Release() { free.push_back(slot); }
  } release{free_, slot};
  Slot& s = slot_ref(slot);
  s.call(s.storage, true);
  return true;
}

void EventQueue::run_until(Ns until) {
  while (!heap_.empty() && heap_.front().at <= until) step();
  if (now_ < until) now_ = until;
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace choir::sim
