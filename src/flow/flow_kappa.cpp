#include "flow/flow_kappa.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "common/expect.hpp"
#include "common/stats.hpp"
#include "common/task_pool.hpp"
#include "core/compare_scratch.hpp"

namespace choir::flow {

namespace {

/// Flows compared in chunks of this many per task when fanning out:
/// 100k single-flow tasks would pay one std::function allocation per
/// flow, while chunks amortize it without affecting results (slots are
/// index-addressed).
constexpr std::size_t kFlowsPerTask = 1024;

constexpr std::uint32_t kNoMatch = 0xFFFFFFFFu;
constexpr std::uint64_t kTagMask = 0xFFFFFFFF00000000ULL;
constexpr std::uint64_t kBSide = 0x80000000ULL;  ///< slot of a B-only id
constexpr std::uint64_t kPosMask = kBSide - 1;

/// Hash of the (flow, id) key: the flow folded into the id before the
/// id hash's avalanche, so equal ids in different flows spread apart.
std::uint64_t key_hash(std::size_t flow, const core::PacketId& id) {
  return core::PacketIdHash{}(core::PacketId{
      id.hi ^ ((static_cast<std::uint64_t>(flow) + 1) * 0xd1b54a32d192ed03ULL),
      id.lo});
}

/// Counting sort of one side into CSR form, each flow rebased to its
/// first packet (demux_trial with rebase, without a Trial per flow).
/// Checks and their order match demux_trial's. When `csr_pos` is given,
/// it receives each packet's CSR position (kNoMatch for kNoFlow).
/// Returns the number of kNoFlow packets, which are dropped.
std::uint64_t build_csr(std::span<const core::TrialPacket> packets,
                        std::span<const FlowId> ids, std::size_t flow_count,
                        std::vector<std::uint32_t>* offsets,
                        std::vector<core::TrialPacket>* out,
                        std::vector<std::uint32_t>* csr_pos) {
  CHOIR_EXPECT(packets.size() == ids.size(),
               "flow id vector must parallel the trial");
  CHOIR_EXPECT(packets.size() < kBSide, "trial exceeds 2^31 - 1 packets");
  std::vector<std::uint32_t>& off = *offsets;
  off.assign(flow_count + 1, 0);
  std::uint64_t unclassified = 0;
  for (const FlowId id : ids) {
    if (id == kNoFlow) {
      ++unclassified;
      continue;
    }
    CHOIR_EXPECT(id < flow_count, "flow id out of range");
    ++off[id + 1];
  }
  for (std::size_t f = 0; f < flow_count; ++f) off[f + 1] += off[f];
  // Place with off[f] as flow f's write cursor, which leaves off[f] at
  // flow f + 1's start; one shift restores the starts.
  out->resize(off[flow_count]);
  if (csr_pos != nullptr) csr_pos->resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kNoFlow) {
      if (csr_pos != nullptr) (*csr_pos)[i] = kNoMatch;
      continue;
    }
    const std::uint32_t pos = off[ids[i]]++;
    (*out)[pos] = packets[i];
    if (csr_pos != nullptr) (*csr_pos)[i] = pos;
  }
  for (std::size_t f = flow_count; f > 0; --f) off[f] = off[f - 1];
  off[0] = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    if (off[f] == off[f + 1]) continue;
    const Ns t0 = (*out)[off[f]].time;
    for (std::uint32_t p = off[f]; p < off[f + 1]; ++p) (*out)[p].time -= t0;
  }
  return unclassified;
}

/// New claim epoch over A's CSR positions (see core::CompareScratch):
/// earlier calls' stamps go stale in O(1), cleared for real on the wrap.
void begin_claims(FlowCompareArena& arena) {
  if (++arena.epoch == 0) {
    for (auto& c : arena.claims) c.epoch = 0;
    arena.epoch = 1;
  }
  if (arena.claims.size() < arena.packets_a.size()) {
    arena.claims.resize(arena.packets_a.size());
  }
  arena.match_a.resize(arena.packets_b.size());
}

/// Match B to A for every flow present on both sides, flow by flow in id
/// order, through one flat (flow, id) index, into arena.match_a.
/// Duplicate ids inside a flow throw the errors compare_trials raises on
/// that flow pair, and in the same order (A's before B's, lower flow ids
/// first); one-sided flows are never indexed.
void match_by_index(FlowCompareArena& arena, std::size_t flow_count) {
  const std::vector<std::uint32_t>& off_a = arena.offsets_a;
  const std::vector<std::uint32_t>& off_b = arena.offsets_b;
  std::size_t indexed = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    const std::size_t na = off_a[f + 1] - off_a[f];
    const std::size_t nb = off_b[f + 1] - off_b[f];
    if (na > 0 && nb > 0) indexed += na + nb;
  }
  std::size_t capacity = 64;
  while (capacity < 2 * (indexed + 1)) capacity <<= 1;
  if (arena.slots.size() < capacity) arena.slots.resize(capacity);
  std::fill_n(arena.slots.begin(), capacity, 0);
  const std::size_t mask = capacity - 1;

  std::uint64_t* slots = arena.slots.data();
  const core::TrialPacket* pa = arena.packets_a.data();
  const core::TrialPacket* pb = arena.packets_b.data();
  const std::uint32_t epoch = arena.epoch;
  for (std::size_t f = 0; f < flow_count; ++f) {
    const std::uint32_t lo_a = off_a[f], hi_a = off_a[f + 1];
    const std::uint32_t lo_b = off_b[f], hi_b = off_b[f + 1];
    if (lo_a == hi_a || lo_b == hi_b) continue;
    // Entries of earlier flows sit below lo_a / lo_b and later flows are
    // not indexed yet, so a position test stands in for the flow test.
    for (std::uint32_t pos = lo_a; pos < hi_a; ++pos) {
      const std::uint64_t hash = key_hash(f, pa[pos].id);
      const std::uint64_t tag = hash & kTagMask;
      for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const std::uint64_t slot = slots[i];
        if (slot == 0) {
          slots[i] = tag | (pos + 1);
          break;
        }
        if ((slot & kTagMask) != tag) continue;
        const std::uint64_t p = (slot & kPosMask) - 1;
        CHOIR_EXPECT(p < lo_a || !(pa[p].id == pa[pos].id),
                     "trial A contains duplicate packet ids");
      }
    }
    for (std::uint32_t pos = lo_b; pos < hi_b; ++pos) {
      const core::PacketId id = pb[pos].id;
      const std::uint64_t hash = key_hash(f, id);
      const std::uint64_t tag = hash & kTagMask;
      for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const std::uint64_t slot = slots[i];
        if (slot == 0) {  // absent from A's flow: a B-only packet
          slots[i] = tag | kBSide | (pos + 1);
          arena.match_a[pos] = kNoMatch;
          break;
        }
        if ((slot & kTagMask) != tag) continue;
        const std::uint64_t p = (slot & kPosMask) - 1;
        if (slot & kBSide) {
          CHOIR_EXPECT(p < lo_b || !(pb[p].id == id),
                       "trial B contains duplicate packet ids");
          continue;
        }
        if (p < lo_a || !(pa[p].id == id)) continue;
        // The claim marks A position p taken; compare_flow stamps its
        // match index.
        CHOIR_EXPECT(arena.claims[p].epoch != epoch,
                     "trial B contains duplicate packet ids");
        arena.claims[p].epoch = epoch;
        arena.match_a[pos] = static_cast<std::uint32_t>(p - lo_a);
        break;
      }
    }
  }
}

/// Match from the caller's whole-trial matches: B packet i matches A
/// packet b_to_a[i] when both sit in the same flow.
void match_supplied(FlowCompareArena& arena, std::span<const FlowId> ids_a,
                    std::span<const FlowId> ids_b,
                    std::span<const std::uint32_t> b_to_a) {
  CHOIR_EXPECT(b_to_a.size() == ids_b.size(),
               "match positions must parallel trial B");
  for (std::size_t i = 0; i < ids_b.size(); ++i) {
    const FlowId f = ids_b[i];
    if (f == kNoFlow) continue;
    const std::uint32_t j = b_to_a[i];
    CHOIR_ASSUME_DBG(j == core::ReferenceIndex::kNoIndex || j < ids_a.size());
    arena.match_a[arena.csr_b[i]] =
        j != core::ReferenceIndex::kNoIndex && ids_a[j] == f
            ? arena.csr_a[j] - arena.offsets_a[f]
            : kNoMatch;
  }
}

/// Flow f's comparison from the matched arena: the rank/LIS half of the
/// κ kernel and the shared scorer on the flow's packed spans. Writes only
/// flow f's claims, so chunks of flows run concurrently.
void compare_flow(FlowCompareArena& arena, std::size_t f,
                  core::CompareScratch& scratch, core::ComparisonResult* scored,
                  FlowComparison* fc) {
  const std::uint32_t lo_a = arena.offsets_a[f], hi_a = arena.offsets_a[f + 1];
  const std::uint32_t lo_b = arena.offsets_b[f], hi_b = arena.offsets_b[f + 1];
  fc->key = FlowKey{};
  fc->id = static_cast<FlowId>(f);
  fc->packets_a = hi_a - lo_a;
  fc->packets_b = hi_b - lo_b;
  fc->in_a = hi_a > lo_a;
  fc->in_b = hi_b > lo_b;
  fc->metrics = core::ConsistencyMetrics{};
  if (fc->matched()) {
    core::Alignment& al = scratch.alignment;
    al.matches.clear();
    al.size_a = fc->packets_a;
    al.size_b = fc->packets_b;
    for (std::uint32_t k = 0; k < fc->packets_b; ++k) {
      const std::uint32_t j = arena.match_a[lo_b + k];
      if (j == kNoMatch) continue;
      arena.claims[lo_a + j] = {arena.epoch,
                                static_cast<std::uint32_t>(al.matches.size())};
      core::MatchedPacket match;
      match.index_a = j;
      match.index_b = k;
      al.matches.push_back(match);
    }
    core::align_from_matches({arena.claims.data() + lo_a, fc->packets_a},
                             arena.epoch, scratch, &al);
    core::score_alignment({arena.packets_a.data() + lo_a, fc->packets_a},
                          {arena.packets_b.data() + lo_b, fc->packets_b}, al,
                          core::ComparisonOptions{}, scored);
    fc->metrics = scored->metrics;
  } else if (fc->in_a || fc->in_b) {
    // One-sided flow: Eq. 5 against an empty trial (see header).
    fc->metrics.uniqueness = 1.0;
    fc->metrics.kappa = core::kappa_of(1.0, 0.0, 0.0, 0.0);
  }
  // Flows in neither trial (retired ids) keep default metrics and are
  // skipped by aggregate_flows.
}

}  // namespace

void compare_flows_by_id(std::span<const core::TrialPacket> a,
                         std::span<const FlowId> ids_a,
                         std::span<const core::TrialPacket> b,
                         std::span<const FlowId> ids_b,
                         std::size_t flow_count, int jobs,
                         FlowCompareArena& arena, FlowSetComparison* out,
                         std::span<const std::uint32_t> b_to_a) {
  const bool supplied = !b_to_a.empty();
  out->unclassified_a =
      build_csr(a, ids_a, flow_count, &arena.offsets_a, &arena.packets_a,
                supplied ? &arena.csr_a : nullptr);
  out->unclassified_b =
      build_csr(b, ids_b, flow_count, &arena.offsets_b, &arena.packets_b,
                supplied ? &arena.csr_b : nullptr);
  begin_claims(arena);
  if (supplied) {
    match_supplied(arena, ids_a, ids_b, b_to_a);
  } else {
    match_by_index(arena, flow_count);
  }

  // Every per-alignment buffer is sized once for the largest flow pair.
  std::size_t max_matches = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    max_matches = std::max<std::size_t>(
        max_matches,
        std::min(arena.offsets_a[f + 1] - arena.offsets_a[f],
                 arena.offsets_b[f + 1] - arena.offsets_b[f]));
  }
  out->flows.resize(flow_count);
  const std::size_t chunks = (flow_count + kFlowsPerTask - 1) / kFlowsPerTask;
  if (!will_fan_out(jobs, chunks)) {
    arena.scratch.reserve(max_matches);
    core::ComparisonResult scored;
    for (std::size_t f = 0; f < flow_count; ++f) {
      compare_flow(arena, f, arena.scratch, &scored, &out->flows[f]);
    }
  } else {
    parallel_for_indexed(jobs, chunks, [&](std::size_t c) {
      // One rank/LIS arena per chunk; results are scratch-invariant, so
      // sharding stays byte-deterministic at any job count.
      core::CompareScratch scratch;
      scratch.reserve(max_matches);
      core::ComparisonResult scored;
      const std::size_t hi = std::min(flow_count, (c + 1) * kFlowsPerTask);
      for (std::size_t f = c * kFlowsPerTask; f < hi; ++f) {
        compare_flow(arena, f, scratch, &scored, &out->flows[f]);
      }
    });
  }
  out->aggregate = aggregate_flows(out->flows, &arena.kappas);
}

FlowAggregate aggregate_flows(std::span<const FlowComparison> flows) {
  std::vector<double> kappas;
  return aggregate_flows(flows, &kappas);
}

FlowAggregate aggregate_flows(std::span<const FlowComparison> flows,
                              std::vector<double>* kappa_buffer) {
  FlowAggregate agg;
  std::vector<double>& kappas = *kappa_buffer;
  kappas.clear();
  kappas.reserve(flows.size());
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  double sum = 0.0;
  for (const FlowComparison& fc : flows) {
    if (!fc.in_a && !fc.in_b) continue;
    ++agg.flows;
    if (fc.matched()) {
      ++agg.matched;
    } else if (fc.in_a) {
      ++agg.only_a;
    } else {
      ++agg.only_b;
    }
    kappas.push_back(fc.metrics.kappa);
    sum += fc.metrics.kappa;
    const double weight =
        static_cast<double>(fc.packets_a) + static_cast<double>(fc.packets_b);
    weighted_sum += weight * fc.metrics.kappa;
    weight_total += weight;
  }
  if (kappas.empty()) {
    // No flows at all: vacuously consistent, matching κ of two empty
    // trials (compare_trials grades them U = 0, κ = 1).
    agg.worst = agg.p50 = agg.p90 = agg.p99 = agg.p999 = 1.0;
    agg.weighted_mean = agg.mean = 1.0;
    return agg;
  }
  // The percentiles below read only the order statistics around their
  // ranks (and the minimum). Selecting exactly those, largest rank first
  // and each inside the prefix the previous selection left below it,
  // puts the values a full sort would at those positions in O(n).
  constexpr double kTail[] = {50.0, 10.0, 1.0, 0.1};
  std::array<std::size_t, 2 * std::size(kTail) + 1> ranks{};
  std::size_t count = 0;
  ranks[count++] = 0;
  for (const double p : kTail) {
    const stats::PercentileBracket b = stats::percentile_bracket(kappas.size(), p);
    ranks[count++] = b.lo;
    ranks[count++] = b.hi;
  }
  std::sort(ranks.begin(), ranks.end(), std::greater<>());
  auto end = kappas.end();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0 && ranks[i] == ranks[i - 1]) continue;
    std::nth_element(kappas.begin(),
                     kappas.begin() + static_cast<std::ptrdiff_t>(ranks[i]),
                     end);
    end = kappas.begin() + static_cast<std::ptrdiff_t>(ranks[i]);
  }
  agg.worst = kappas.front();
  agg.p50 = stats::percentile_sorted(kappas, 50.0);
  // The tail of a κ distribution is its *low* end: p90 is the value 90%
  // of flows are at-or-above, so it reads off the 10th percentile of the
  // ascending sample (p99 likewise).
  agg.p90 = stats::percentile_sorted(kappas, 10.0);
  agg.p99 = stats::percentile_sorted(kappas, 1.0);
  agg.p999 = stats::p999_low_sorted(kappas);
  agg.weighted_mean = weight_total > 0.0 ? weighted_sum / weight_total : 1.0;
  agg.mean = sum / static_cast<double>(kappas.size());
  return agg;
}

FlowSetComparison compare_flows_by_id(const core::Trial& a,
                                      std::span<const FlowId> ids_a,
                                      const core::Trial& b,
                                      std::span<const FlowId> ids_b,
                                      std::size_t flow_count, int jobs) {
  FlowCompareArena arena;
  FlowSetComparison out;
  compare_flows_by_id(a.packets(), ids_a, b.packets(), ids_b, flow_count,
                      jobs, arena, &out);
  return out;
}

FlowSetComparison compare_flows(const core::Trial& a, const FlowTable& table_a,
                                std::span<const FlowId> ids_a,
                                const core::Trial& b, const FlowTable& table_b,
                                std::span<const FlowId> ids_b, int jobs) {
  // Remap B's ids into A's id space by key; B-only flows are appended
  // past A's count in B's first-seen order.
  const std::size_t a_count = table_a.ids();
  std::vector<FlowId> remap(table_b.ids(), kNoFlow);
  std::size_t extras = 0;
  for (FlowId bid = 0; bid < table_b.ids(); ++bid) {
    const FlowId aid = table_a.lookup(table_b.key_of(bid));
    if (aid != kNoFlow) {
      remap[bid] = aid;
    } else {
      remap[bid] = static_cast<FlowId>(a_count + extras);
      ++extras;
    }
  }
  std::vector<FlowId> ids_b_mapped(ids_b.size(), kNoFlow);
  for (std::size_t i = 0; i < ids_b.size(); ++i) {
    if (ids_b[i] != kNoFlow) ids_b_mapped[i] = remap[ids_b[i]];
  }

  FlowCompareArena arena;
  FlowSetComparison out;
  compare_flows_by_id(a.packets(), ids_a, b.packets(), ids_b_mapped,
                      a_count + extras, jobs, arena, &out);

  // Attach keys: ids below a_count come from A's table, the rest from B's.
  std::vector<FlowId> extra_key(extras, kNoFlow);
  for (FlowId bid = 0; bid < table_b.ids(); ++bid) {
    if (remap[bid] >= a_count) extra_key[remap[bid] - a_count] = bid;
  }
  for (std::size_t f = 0; f < out.flows.size(); ++f) {
    out.flows[f].key = f < a_count
                           ? table_a.key_of(static_cast<FlowId>(f))
                           : table_b.key_of(extra_key[f - a_count]);
  }
  return out;
}

}  // namespace choir::flow
