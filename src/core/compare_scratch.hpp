// Reusable arena for the κ kernels (the ROADMAP "κ-kernel raw speed"
// item): everything align_trials/compare_trials need per comparison,
// owned once and recycled, so steady-state comparison loops (bench
// suites, per-flow demux, monitor windows) perform zero heap
// allocations.
//
// Two pieces:
//
//  - ReferenceIndex: a flat open-addressing table (IdTable-style: dense
//    linear probing, power-of-two capacity) mapping packet id -> index
//    in trial A. A node-based unordered_map costs ~2 dependent cache
//    misses per operation and one allocation per node; the flat table
//    is one probe and zero allocations once built. It is immutable
//    after rebuild(), so one index built over a reference trial can be
//    shared read-only across evaluation workers (experiment.cpp builds
//    it once for run A and reuses it for every B..E comparison).
//
//  - CompareScratch: the per-worker mutable state — an epoch-stamped
//    claim array that fuses trial-B duplicate detection with the match
//    pass (one table probe plus one array write per packet), the rank
//    and LIS buffers, and a reusable Alignment. Epoch stamping makes
//    the logical clear between comparisons O(1).
//
// Not thread-safe: share only the const ReferenceIndex; give each
// worker its own CompareScratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "core/edit_script.hpp"
#include "core/lis.hpp"
#include "core/trial.hpp"

namespace choir::core {

/// Flat index of a reference trial: packet id -> position in A.
/// Read-only after rebuild(), hence shareable across threads.
class ReferenceIndex {
 public:
  static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

  ReferenceIndex() = default;
  explicit ReferenceIndex(const Trial& a) { rebuild(a); }

  /// Index `a`; throws choir::Error on duplicate packet ids. Slot
  /// storage is reused when capacity allows; returns true when it had
  /// to grow (allocation telemetry for the scratch counters).
  bool rebuild(const Trial& a) {
    std::size_t capacity = 64;
    while (capacity < 2 * (a.size() + 1)) capacity <<= 1;
    const bool grew =
        slots_.capacity() < capacity || used_.capacity() < capacity;
    // Stale slot payloads are never read (used_ is authoritative), so
    // only the occupancy bytes need clearing.
    slots_.resize(capacity);
    used_.assign(capacity, 0);
    mask_ = capacity - 1;
    size_ = a.size();
    for (std::uint32_t j = 0; j < a.size(); ++j) {
      const PacketId id = a[j].id;
      std::size_t i = PacketIdHash{}(id) & mask_;
      while (used_[i]) {
        CHOIR_EXPECT(!(slots_[i].id == id),
                     "trial A contains duplicate packet ids");
        i = (i + 1) & mask_;
      }
      used_[i] = 1;
      slots_[i].id = id;
      slots_[i].index = j;
    }
    return grew;
  }

  /// Position of `id` in the indexed trial, kNoIndex when absent.
  std::uint32_t lookup(PacketId id) const {
    if (used_.empty()) return kNoIndex;
    std::size_t i = PacketIdHash{}(id) & mask_;
    while (used_[i]) {
      if (slots_[i].id == id) return slots_[i].index;
      i = (i + 1) & mask_;
    }
    return kNoIndex;
  }

  /// Number of packets indexed (size of the trial passed to rebuild).
  std::size_t size() const { return size_; }

 private:
  struct Slot {
    PacketId id{};
    std::uint32_t index = kNoIndex;
  };

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Per-worker comparison arena. Fields below `shared_ref` are
/// implementation detail of align_trials/compare_trials (public so the
/// free-function kernels can reach them, like LisScratch).
struct CompareScratch {
  /// Optional prebuilt index for trial A, for callers comparing many
  /// trials against one reference. Must outlive its use here and index
  /// exactly the A passed to align/compare (checked by size). nullptr
  /// restores the default: `own_ref` is rebuilt per alignment.
  const ReferenceIndex* shared_ref = nullptr;

  /// Completed alignments through this scratch.
  std::uint64_t comparisons = 0;

  /// Buffer-growth events across every internal arena, including the
  /// LIS workspace. Constant once the scratch is warm — the
  /// zero-steady-state-allocation contract the tests assert on.
  std::uint64_t total_grows() const { return grows + lis.grows; }

  // --- internals ---------------------------------------------------------
  ReferenceIndex own_ref;
  std::uint64_t grows = 0;

  /// A-side claim array: claimed[j] records which match (if any) took
  /// reference position j this epoch. Fuses B-duplicate detection with
  /// matching, and turns rank assignment into one linear scan over A
  /// (replacing the per-comparison iota+sort).
  struct Claim {
    std::uint32_t epoch = 0;
    std::uint32_t match = 0;
  };
  std::vector<Claim> claimed;

  /// Duplicate detection for B-only ids (ids absent from A), epoch-
  /// stamped like `claimed` so clears stay O(1).
  struct BOnlySlot {
    PacketId id{};
    std::uint32_t epoch = 0;
  };
  std::vector<BOnlySlot> b_only;
  std::size_t b_only_mask = 0;

  std::uint32_t epoch = 0;

  std::vector<std::uint32_t> order;         ///< match index by rank_a
  std::vector<std::uint32_t> seq_forward;   ///< rank_a in B order
  std::vector<std::uint32_t> seq_backward;  ///< rank_b in A order
  std::vector<std::uint32_t> lis_out;       ///< LIS positions buffer
  std::vector<char> member_fwd;             ///< LCS membership, B order
  std::vector<char> member_bwd;             ///< LCS membership, A-rank order
  LisScratch lis;
  Alignment alignment;  ///< compare_trials' reusable alignment storage

  /// Size every per-alignment buffer for alignments of up to `matches`
  /// common packets, so a loop over many small alignments (per-flow κ)
  /// grows each buffer once instead of once per larger input seen.
  void reserve(std::size_t matches);
};

/// The rank/LIS/edit-script half of align_trials. Its matching half has
/// filled out->matches (index_a and index_b only, in B order),
/// out->size_a and out->size_b, and stamped claimed[j] = {epoch, match
/// index} for every claimed A position j (claimed spans exactly trial
/// A). This half assigns ranks, picks the cheaper of the forward and
/// backward maximal LCS, and fills the LCS flags, the moves, lcs_length
/// and the displacement sum. When the forward rank sequence is the
/// identity the whole sequence is the LCS and O = 0, so both LIS passes
/// are skipped; the output is the same either way.
void align_from_matches(std::span<const CompareScratch::Claim> claimed,
                        std::uint32_t epoch, CompareScratch& scratch,
                        Alignment* out);

/// align_trials for a caller that has already matched the trials:
/// b_to_a[k] is the position in `a` of the packet with B packet k's id,
/// ReferenceIndex::kNoIndex when A has none. Ids must be unique on each
/// side (checked only in debug builds); the output is then exactly
/// align_trials' without an index build or a lookup. The streaming
/// monitor matches each packet as it arrives and aligns its windows and
/// finales this way.
void align_matched(const Trial& a, const Trial& b,
                   std::span<const std::uint32_t> b_to_a,
                   CompareScratch& scratch, Alignment* out);

}  // namespace choir::core
