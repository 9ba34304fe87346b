#include "core/trial.hpp"

#include "common/expect.hpp"

namespace choir::core {

namespace {

// Index of first occurrences over a packet vector, in the flat
// open-addressing idiom of ReferenceIndex and monitor::IdTable: linear
// probing over a power-of-two table of at least twice the packet count.
// A slot packs the id hash's high 32 bits with the position of the id's
// first occurrence plus one (0 marks an empty slot), so most collisions
// resolve without reading the packets.
class FirstOccurrence {
 public:
  static constexpr std::uint32_t kFirst = 0xFFFFFFFFu;

  explicit FirstOccurrence(std::size_t n) {
    CHOIR_EXPECT(n < kFirst, "trial exceeds 2^32 - 1 packets");
    std::size_t capacity = 64;
    while (capacity < 2 * (n + 1)) capacity <<= 1;
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
  }

  /// Position of the earliest packet carrying `packets[pos].id`, or
  /// kFirst (recording `pos`) when this is its first occurrence. Only
  /// first occurrences are recorded, and their ids are never rewritten.
  std::uint32_t find_or_insert(const std::vector<TrialPacket>& packets,
                               std::uint32_t pos) {
    const PacketId id = packets[pos].id;
    const std::uint64_t hash = PacketIdHash{}(id);
    const std::uint64_t tag = hash & kTagMask;
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = tag | (pos + 1);
        return kFirst;
      }
      if ((slot & kTagMask) == tag) {
        const auto first = static_cast<std::uint32_t>(slot) - 1;
        if (packets[first].id == id) return first;
      }
    }
  }

 private:
  static constexpr std::uint64_t kTagMask = 0xFFFFFFFF00000000ULL;

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
};

}  // namespace

void Trial::shift_times(Ns delta) {
  if (delta == 0) return;
  for (auto& p : packets_) p.time += delta;
}

void Trial::rebase_to_zero() {
  if (packets_.empty()) return;
  shift_times(-first_time());
}

std::size_t Trial::make_occurrences_unique() {
  FirstOccurrence index(packets_.size());
  // Repeats seen so far per first-occurrence position; sized on the first
  // duplicate, so unique trials never allocate it.
  std::vector<std::uint32_t> repeats;
  std::size_t rewritten = 0;
  for (std::uint32_t pos = 0; pos < packets_.size(); ++pos) {
    const std::uint32_t first = index.find_or_insert(packets_, pos);
    if (first == FirstOccurrence::kFirst) continue;
    if (repeats.empty()) repeats.assign(packets_.size(), 0);
    packets_[pos].id = occurrence_id(packets_[pos].id, ++repeats[first]);
    ++rewritten;
  }
  return rewritten;
}

bool Trial::ids_unique() const {
  FirstOccurrence index(packets_.size());
  for (std::uint32_t pos = 0; pos < packets_.size(); ++pos) {
    if (index.find_or_insert(packets_, pos) != FirstOccurrence::kFirst) {
      return false;
    }
  }
  return true;
}

}  // namespace choir::core
