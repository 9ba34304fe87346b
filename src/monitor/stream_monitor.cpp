#include "monitor/stream_monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/expect.hpp"
#include "telemetry/span_profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::monitor {

// stream_ref_ feeds core::align_matched and flow::compare_flows_by_id
// as is, so "no reference position" must read the same to all three.
static_assert(IdTable::kNoRef == core::ReferenceIndex::kNoIndex);

const char* to_string(DivergenceRecord::Kind kind) {
  switch (kind) {
    case DivergenceRecord::Kind::kMoved:
      return "moved";
    case DivergenceRecord::Kind::kMissing:
      return "missing";
    case DivergenceRecord::Kind::kExtra:
      return "extra";
    case DivergenceRecord::Kind::kLatency:
      return "latency";
  }
  return "?";
}

StreamMonitor::StreamMonitor(MonitorConfig config)
    : config_(config),
      tm_observed_(telemetry::counter("monitor.observed")),
      tm_matched_(telemetry::counter("monitor.matched")),
      tm_windows_(telemetry::counter("monitor.windows")),
      tm_streams_(telemetry::counter("monitor.streams")),
      tm_window_kappa_ppm_(telemetry::gauge("monitor.window_kappa_ppm")),
      tm_running_kappa_ppm_(telemetry::gauge("monitor.running_kappa_ppm")),
      tm_window_flow_kappa_ppm_(
          telemetry::gauge("monitor.window_flow_kappa_ppm")),
      tm_track_(telemetry::track("monitor")) {
  CHOIR_EXPECT(config_.window_packets > 0, "window_packets must be > 0");
  if (config_.async) {
    std::size_t capacity = 64;
    while (capacity < config_.ring_capacity) capacity <<= 1;
    ring_.resize(capacity);
    ring_mask_ = capacity - 1;
    worker_ = std::thread([this] { worker_main(); });
  }
}

StreamMonitor::~StreamMonitor() { stop_worker(); }

// ---- Async pipeline ---------------------------------------------------

void StreamMonitor::enqueue(const Item& item) {
  const std::uint64_t tail = ring_tail_.load(std::memory_order_relaxed);
  // Backpressure: block only when the worker trails by a whole ring.
  while (tail - ring_head_.load(std::memory_order_acquire) >= ring_.size()) {
    std::this_thread::yield();
  }
  ring_[tail & ring_mask_] = item;
  ring_tail_.store(tail + 1, std::memory_order_release);
  if (worker_idle_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_.notify_one();
  }
}

void StreamMonitor::worker_main() {
  std::uint64_t head = ring_head_.load(std::memory_order_relaxed);
  for (;;) {
    if (head == ring_tail_.load(std::memory_order_acquire)) {
      if (worker_stop_.load(std::memory_order_acquire)) {
        // Re-check after the stop flag: the feeder publishes every item
        // before raising it, so an empty ring here is final.
        if (head == ring_tail_.load(std::memory_order_acquire)) break;
        continue;
      }
      // Short spin for the common keep-up case, then sleep.
      bool got = false;
      for (int spin = 0; spin < 1024; ++spin) {
        if (head != ring_tail_.load(std::memory_order_acquire)) {
          got = true;
          break;
        }
        std::this_thread::yield();
      }
      if (!got) {
        std::unique_lock<std::mutex> lock(wake_mutex_);
        worker_idle_.store(true, std::memory_order_relaxed);
        wake_.wait_for(lock, std::chrono::microseconds(200), [&] {
          return head != ring_tail_.load(std::memory_order_acquire) ||
                 worker_stop_.load(std::memory_order_acquire);
        });
        worker_idle_.store(false, std::memory_order_relaxed);
      }
      continue;
    }
    const Item item = ring_[head & ring_mask_];
    ring_head_.store(++head, std::memory_order_release);
    if (item.kind == kItemObserve) {
      do_observe(item.id, item.time, item.flow);
    } else {
      std::string name;
      {
        std::lock_guard<std::mutex> lock(names_mutex_);
        name = stream_names_[item.name_index];
      }
      do_begin_stream(name);
    }
  }
}

void StreamMonitor::stop_worker() {
  if (!worker_.joinable()) return;
  worker_stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_.notify_one();
  }
  worker_.join();
  worker_stop_.store(false, std::memory_order_release);
}

void StreamMonitor::begin_stream(const std::string& name) {
  if (!config_.async) {
    do_begin_stream(name);
    return;
  }
  Item item;
  item.kind = kItemBegin;
  {
    std::lock_guard<std::mutex> lock(names_mutex_);
    stream_names_.push_back(name);
    item.name_index = static_cast<std::uint32_t>(stream_names_.size() - 1);
  }
  if (!worker_.joinable()) worker_ = std::thread([this] { worker_main(); });
  enqueue(item);
}

void StreamMonitor::observe(core::PacketId raw_id, Ns timestamp) {
  observe(raw_id, timestamp, flow::kNoFlow);
}

void StreamMonitor::observe(core::PacketId raw_id, Ns timestamp,
                            flow::FlowId flow) {
  if (!config_.async) {
    do_observe(raw_id, timestamp, flow);
    return;
  }
  Item item;
  item.id = raw_id;
  item.time = timestamp;
  item.kind = kItemObserve;
  item.flow = flow;
  enqueue(item);
}

void StreamMonitor::finalize() {
  if (config_.async) {
    stop_worker();  // drains the ring, then joins
    close_stream();
    flush_telemetry();
    return;
  }
  close_stream();
}

void StreamMonitor::flush_telemetry() {
  // One-shot flush on the finalizing thread: async workers never touch
  // the (unsynchronized) telemetry instruments live.
  tm_observed_.add(observed_);
  tm_matched_.add(matched_total_);
  tm_windows_.add(windows_.size());
  tm_streams_.add(streams_.size());
  if (!windows_.empty()) {
    tm_window_kappa_ppm_.set(
        static_cast<std::int64_t>(windows_.back().metrics.kappa * 1e6));
    tm_running_kappa_ppm_.set(
        static_cast<std::int64_t>(windows_.back().kappa_running * 1e6));
    for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
      if (!it->has_flows) continue;
      tm_window_flow_kappa_ppm_.set(
          static_cast<std::int64_t>(it->flow_aggregate.worst * 1e6));
      break;
    }
  }
  if (auto* tracer = telemetry::tracer()) {
    for (const WindowRecord& window : windows_) {
      char args[160];
      std::snprintf(args, sizeof(args),
                    "{\"stream\":\"%s\",\"window\":%llu,\"kappa\":%.9f,"
                    "\"moved\":%zu,\"missing\":%zu,\"extra\":%zu}",
                    window.stream_name.c_str(),
                    static_cast<unsigned long long>(window.index),
                    window.metrics.kappa, window.moved, window.missing,
                    window.extra);
      tracer->instant("monitor-window", window.last_time_ns, tm_track_, args);
    }
  }
}

// ---- Pipeline (worker thread in async mode) ---------------------------

void StreamMonitor::install_reference(core::Trial reference) {
  reference.make_occurrences_unique();
  reference.rebase_to_zero();
  id_table_.rebuild(reference);
  fenwick_.assign(reference.size() + 1, 0);
  reference_ = std::move(reference);
  reference_set_ = true;
}

void StreamMonitor::set_reference(core::Trial reference,
                                  std::vector<flow::FlowId> flows) {
  CHOIR_EXPECT(!stream_open_, "cannot replace the reference mid-stream");
  CHOIR_EXPECT(!config_.async || !worker_.joinable() || observed_ == 0,
               "set_reference() must precede async feeding");
  CHOIR_EXPECT(flows.empty() || flows.size() == reference.size(),
               "reference flow ids must parallel the trial");
  install_reference(std::move(reference));
  reference_flows_ = std::move(flows);
  for (const flow::FlowId f : reference_flows_) {
    if (f != flow::kNoFlow && f + 1 > flow_ids_high_) {
      flow_ids_high_ = f + 1;
    }
  }
}

void StreamMonitor::do_begin_stream(const std::string& name) {
  close_stream();
  stream_open_ = true;
  stream_is_reference_ =
      !reference_set_ && config_.reference_from_first_stream;
  stream_name_ = name;
  stream_packets_.clear();
  stream_ref_.clear();
  stream_flows_.clear();
  id_table_.new_stream();
  window_begin_ = 0;
  window_index_ = 0;
  stream_lis_.clear();
  if (reference_set_) std::fill(fenwick_.begin(), fenwick_.end(), 0u);
  stream_matched_ = 0;
  running_abs_latency_ns_ = 0.0;
  running_abs_iat_ns_ = 0.0;
  running_footrule_ = 0.0;
  running_ = RunningEstimate{};
}

void StreamMonitor::fenwick_add(std::size_t index_a) {
  const std::size_t size = fenwick_.size();
  std::uint32_t* tree = fenwick_.data();
  for (std::size_t i = index_a + 1; i < size; i += i & (~i + 1)) ++tree[i];
}

std::uint64_t StreamMonitor::fenwick_prefix(std::size_t index_a) const {
  const std::uint32_t* tree = fenwick_.data();
  std::uint64_t sum = 0;
  for (std::size_t i = index_a; i > 0; i -= i & (~i + 1)) sum += tree[i];
  return sum;
}

void StreamMonitor::do_observe(core::PacketId raw_id, Ns timestamp,
                               flow::FlowId flow) {
  CHOIR_EXPECT(stream_open_, "observe() requires an open stream");
  const IdTable::Hit hit = id_table_.observe(raw_id);
  const core::PacketId id =
      hit.occurrence > 0 ? core::occurrence_id(raw_id, hit.occurrence)
                         : raw_id;
  const auto k = static_cast<std::uint32_t>(stream_packets_.size());
  stream_packets_.push_back(core::TrialPacket{id, timestamp});
  stream_flows_.push_back(flow);
  if (flow != flow::kNoFlow && flow + 1 > flow_ids_high_) {
    flow_ids_high_ = flow + 1;
  }
  ++observed_;
  if (!config_.async) tm_observed_.add();
  if (stream_is_reference_) return;

  // Match against the reference and fold the packet into the running
  // accumulators — the same per-match quantities the offline Eqs. 3-4
  // loop computes, built incrementally. The fused table answers the
  // common case (unique id, present in the reference) with one probe;
  // a repeated id re-probes under its occurrence-tagged identity.
  const std::uint32_t j = hit.occurrence == 0
                              ? hit.ref_index
                              : id_table_.ref_index_of(id);
  stream_ref_.push_back(j);
  if (j != IdTable::kNoRef) {
    ++stream_matched_;
    ++matched_total_;
    if (!config_.async) tm_matched_.add();
    const double l_a = static_cast<double>(reference_[j].time);
    const double l_b =
        static_cast<double>(timestamp - stream_packets_.front().time);
    const double g_a =
        j == 0 ? 0.0
               : static_cast<double>(reference_[j].time -
                                     reference_[j - 1].time);
    const double g_b =
        k == 0 ? 0.0
               : static_cast<double>(timestamp -
                                     stream_packets_[k - 1].time);
    running_abs_latency_ns_ += l_a >= l_b ? l_a - l_b : l_b - l_a;
    running_abs_iat_ns_ += g_a >= g_b ? g_a - g_b : g_b - g_a;
    // Insertion-rank footrule: rank among matched-so-far, by B arrival
    // vs by reference position. An O(log n) running proxy for Eq. 2.
    const auto rank_b = static_cast<double>(stream_matched_ - 1);
    const auto rank_a = static_cast<double>(fenwick_prefix(j));
    running_footrule_ += rank_a >= rank_b ? rank_a - rank_b : rank_b - rank_a;
    fenwick_add(j);
    stream_lis_.append(j);
  }

  if (stream_packets_.size() - window_begin_ >= config_.window_packets) {
    close_window(false);
  }
}

void StreamMonitor::update_running(Ns) {
  RunningEstimate r;
  const auto na = static_cast<double>(reference_.size());
  const auto nb = static_cast<double>(stream_packets_.size());
  const auto m = static_cast<double>(stream_matched_);
  const double total = na + nb;
  r.uniqueness = total > 0.0 ? 1.0 - 2.0 * m / total : 0.0;
  const double o_denominator = m * (m + 1.0) / 2.0;
  r.ordering = o_denominator > 0.0
                   ? std::min(1.0, running_footrule_ / o_denominator)
                   : 0.0;
  if (stream_matched_ > 0 && !stream_packets_.empty()) {
    const double a_last =
        reference_.empty() ? 0.0 : static_cast<double>(reference_.last_time());
    const double b_span = static_cast<double>(stream_packets_.back().time -
                                              stream_packets_.front().time);
    const double straddle = std::max(b_span, a_last);
    const double l_denominator = m * straddle;
    r.latency =
        l_denominator > 0.0 ? running_abs_latency_ns_ / l_denominator : 0.0;
    const double i_denominator = b_span + a_last;
    r.iat = i_denominator > 0.0 ? running_abs_iat_ns_ / i_denominator : 0.0;
  }
  r.kappa = core::kappa_of(r.uniqueness, r.ordering, r.latency, r.iat);
  r.lcs_length = stream_lis_.length();
  running_ = r;
}

void StreamMonitor::slice_into(const std::vector<core::TrialPacket>& packets,
                               std::size_t begin, std::size_t end,
                               core::Trial* out) {
  out->assign(std::span<const core::TrialPacket>(packets).subspan(
      begin, end - begin));
  out->rebase_to_zero();
}

void StreamMonitor::close_window(bool) {
  const std::size_t b_begin = window_begin_;
  const std::size_t b_end = stream_packets_.size();
  if (b_end == b_begin) return;
  telemetry::ProfileSpan prof("monitor.window");

  const std::size_t a_begin = std::min(b_begin, reference_.size());
  const std::size_t a_end = std::min(b_end, reference_.size());
  slice_into(reference_.packets(), a_begin, a_end, &slice_a_);
  slice_into(stream_packets_, b_begin, b_end, &slice_b_);

  // The exact Section 3 comparison of the slice pair, aligned from the
  // matches observe() found: ids are unique on both sides, so a window
  // packet matches in the slice pair iff its reference position falls in
  // the paired range — what align_trials would find by lookup.
  window_ref_.resize(b_end - b_begin);
  for (std::size_t k = b_begin; k < b_end; ++k) {
    const std::uint32_t j = stream_ref_[k];
    window_ref_[k - b_begin] =
        j != IdTable::kNoRef && j >= a_begin && j < a_end
            ? static_cast<std::uint32_t>(j - a_begin)
            : core::ReferenceIndex::kNoIndex;
  }
  core::Alignment& alignment = compare_scratch_.alignment;
  core::align_matched(slice_a_, slice_b_, window_ref_, compare_scratch_,
                      &alignment);
  core::ComparisonOptions options;
  options.collect_series = true;
  core::ComparisonResult& cmp = window_cmp_;
  core::score_alignment(slice_a_.packets(), slice_b_.packets(), alignment,
                        options, &cmp);

  WindowRecord window;
  window.stream = stream_ordinal_;
  window.stream_name = stream_name_;
  window.index = window_index_;
  window.b_begin = b_begin;
  window.b_end = b_end;
  window.a_begin = a_begin;
  window.a_end = a_end;
  window.first_time_ns = stream_packets_[b_begin].time;
  window.last_time_ns = stream_packets_[b_end - 1].time;
  window.metrics = cmp.metrics;
  window.common = cmp.common;
  window.moved = cmp.moved;
  window.missing = cmp.size_a - cmp.common;
  window.extra = cmp.size_b - cmp.common;
  window.lcs_length = cmp.lcs_length;
  update_running(window.last_time_ns);
  window.kappa_running = running_.kappa;

  // Per-flow κ for this window: the same slice pair split by flow id,
  // so every window carries its own flow-κ distribution. Inline
  // (jobs = 1) for the same reason as the stream finale below. The raw
  // slices go in unrebased: each flow is rebased on its own.
  const bool window_has_flows =
      !reference_flows_.empty() && b_end <= stream_flows_.size() &&
      std::any_of(stream_flows_.begin() +
                      static_cast<std::ptrdiff_t>(b_begin),
                  stream_flows_.begin() + static_cast<std::ptrdiff_t>(b_end),
                  [](flow::FlowId f) { return f != flow::kNoFlow; });
  if (window_has_flows) {
    const std::span<const core::TrialPacket> ref(reference_.packets());
    const std::span<const flow::FlowId> ref_flows(reference_flows_);
    const std::span<const flow::FlowId> flows(stream_flows_);
    flow::compare_flows_by_id(
        ref.subspan(a_begin, a_end - a_begin),
        ref_flows.subspan(a_begin, a_end - a_begin),
        std::span<const core::TrialPacket>(stream_packets_)
            .subspan(b_begin, b_end - b_begin),
        flows.subspan(b_begin, b_end - b_begin), flow_ids_high_, /*jobs=*/1,
        flow_arena_, &flow_cmp_, window_ref_);
    window.has_flows = true;
    window.flow_aggregate = flow_cmp_.aggregate;
  }

  if (config_.top_k > 0) attribute_window(cmp, alignment, window);

  if (!config_.async) {
    tm_windows_.add();
    tm_window_kappa_ppm_.set(
        static_cast<std::int64_t>(window.metrics.kappa * 1e6));
    tm_running_kappa_ppm_.set(
        static_cast<std::int64_t>(running_.kappa * 1e6));
    if (window.has_flows) {
      tm_window_flow_kappa_ppm_.set(static_cast<std::int64_t>(
          window.flow_aggregate.worst * 1e6));
    }
    if (auto* tracer = telemetry::tracer()) {
      char args[160];
      std::snprintf(args, sizeof(args),
                    "{\"stream\":\"%s\",\"window\":%llu,\"kappa\":%.9f,"
                    "\"moved\":%zu,\"missing\":%zu,\"extra\":%zu}",
                    stream_name_.c_str(),
                    static_cast<unsigned long long>(window_index_),
                    window.metrics.kappa, window.moved, window.missing,
                    window.extra);
      tracer->instant("monitor-window", window.last_time_ns, tm_track_, args);
    }
  }

  windows_.push_back(std::move(window));
  window_begin_ = b_end;
  ++window_index_;
}

void StreamMonitor::attribute_window(const core::ComparisonResult& cmp,
                                     const core::Alignment& alignment,
                                     const WindowRecord& window) {
  const std::size_t b_size = window.b_end - window.b_begin;
  const std::size_t a_size = window.a_end - window.a_begin;

  // Per-local-position match lookup (window-local B index -> match slot).
  std::vector<std::int32_t>& match_of_b = match_of_b_;
  std::vector<char>& matched_a = matched_a_;
  match_of_b.assign(b_size, -1);
  matched_a.assign(a_size, 0);
  for (std::size_t i = 0; i < alignment.matches.size(); ++i) {
    match_of_b[alignment.matches[i].index_b] = static_cast<std::int32_t>(i);
    matched_a[alignment.matches[i].index_a] = 1;
  }

  const auto emit = [&](DivergenceRecord record) {
    record.stream = window.stream;
    record.stream_name = window.stream_name;
    record.window = window.index;
    divergence_.push_back(std::move(record));
  };

  // Top-K selections: both orders below are strict and total (ties break
  // on the B position, unique per match), so partial_sort's first K equal
  // a full stable sort's without sorting the whole window.
  const auto top_k = [this](auto& v, auto less) {
    const std::size_t k = std::min(v.size(), config_.top_k);
    std::partial_sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                      v.end(), less);
    v.resize(k);
  };

  // Moved: largest |rank displacement| first; ties on B position.
  std::vector<const core::Move*>& moves = top_moves_;
  moves.clear();
  for (const core::Move& mv : alignment.moves) {
    if (mv.displacement != 0) moves.push_back(&mv);
  }
  top_k(moves, [](const core::Move* x, const core::Move* y) {
    const auto ax = x->displacement < 0 ? -x->displacement : x->displacement;
    const auto ay = y->displacement < 0 ? -y->displacement : y->displacement;
    if (ax != ay) return ax > ay;
    return x->index_b < y->index_b;
  });
  for (const core::Move* mv : moves) {
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kMoved;
    const std::size_t global_b = window.b_begin + mv->index_b;
    r.id = stream_packets_[global_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + mv->index_a);
    r.index_b = static_cast<std::int64_t>(global_b);
    r.move = mv->displacement;
    const std::int32_t slot = match_of_b[mv->index_b];
    if (slot >= 0) {
      r.latency_delta_ns =
          cmp.series.latency_delta_ns[static_cast<std::size_t>(slot)];
    }
    r.time_ns = stream_packets_[global_b].time;
    emit(r);
  }

  // Latency straddle: matched packets with the largest |l_B - l_A|.
  std::vector<std::uint32_t>& by_latency = top_latency_;
  by_latency.clear();
  for (std::uint32_t i = 0; i < alignment.matches.size(); ++i) {
    if (cmp.series.latency_delta_ns[i] != 0.0) by_latency.push_back(i);
  }
  top_k(by_latency, [&](std::uint32_t x, std::uint32_t y) {
    const double ax = std::abs(cmp.series.latency_delta_ns[x]);
    const double ay = std::abs(cmp.series.latency_delta_ns[y]);
    if (ax != ay) return ax > ay;
    return alignment.matches[x].index_b < alignment.matches[y].index_b;
  });
  for (const std::uint32_t i : by_latency) {
    const core::MatchedPacket& match = alignment.matches[i];
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kLatency;
    const std::size_t global_b = window.b_begin + match.index_b;
    r.id = stream_packets_[global_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + match.index_a);
    r.index_b = static_cast<std::int64_t>(global_b);
    r.latency_delta_ns = cmp.series.latency_delta_ns[i];
    r.time_ns = stream_packets_[global_b].time;
    emit(r);
  }

  // Missing: in the paired reference slice but not in this window. A
  // packet that merely drifted across a window boundary shows up as
  // missing here and extra in a neighbor — that is the signal, not a
  // bug (see docs/MONITOR.md).
  std::size_t emitted = 0;
  for (std::size_t j = 0; j < a_size && emitted < config_.top_k; ++j) {
    if (matched_a[j]) continue;
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kMissing;
    const std::size_t global_a = window.a_begin + j;
    r.id = reference_[global_a].id;
    r.index_a = static_cast<std::int64_t>(global_a);
    r.time_ns = reference_[global_a].time;  // reference-relative time
    emit(r);
    ++emitted;
  }

  // Extra: in this window but not in the paired reference slice.
  emitted = 0;
  for (std::size_t k = 0; k < b_size && emitted < config_.top_k; ++k) {
    if (match_of_b[k] >= 0) continue;
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kExtra;
    const std::size_t global_b = window.b_begin + k;
    r.id = stream_packets_[global_b].id;
    r.index_b = static_cast<std::int64_t>(global_b);
    r.time_ns = stream_packets_[global_b].time;
    emit(r);
    ++emitted;
  }
}

void StreamMonitor::close_stream() {
  if (!stream_open_) return;
  stream_open_ = false;
  if (stream_is_reference_) {
    install_reference(core::Trial(std::move(stream_packets_)));
    reference_flows_ = std::move(stream_flows_);
    stream_packets_.clear();
    stream_flows_.clear();
    return;
  }
  telemetry::ProfileSpan prof("monitor.finalize");
  close_window(true);

  // Exact finale: the whole stream against the whole reference, via the
  // offline algorithm — what `compare_trials` on saved captures reports
  // (aligned from observe()'s matches, as the windows are).
  StreamResult result;
  result.ordinal = stream_ordinal_;
  result.name = stream_name_;
  result.packets = stream_packets_.size();
  result.windows = window_index_;
  slice_into(stream_packets_, 0, stream_packets_.size(), &slice_b_);
  core::Alignment& alignment = compare_scratch_.alignment;
  core::align_matched(reference_, slice_b_, stream_ref_, compare_scratch_,
                      &alignment);
  core::ComparisonResult cmp;
  core::score_alignment(reference_.packets(), slice_b_.packets(), alignment,
                        core::ComparisonOptions{}, &cmp);
  result.metrics = cmp.metrics;
  result.common = cmp.common;
  result.moved = cmp.moved;
  result.missing = cmp.size_a - cmp.common;
  result.extra = cmp.size_b - cmp.common;

  // Per-flow finale: exact Eq. 5 per flow over the shared (classifier)
  // id space. Inline (jobs = 1): close_stream may already be on the
  // async worker, and the finale is a once-per-stream cost.
  const bool stream_has_flows =
      std::any_of(stream_flows_.begin(), stream_flows_.end(),
                  [](flow::FlowId f) { return f != flow::kNoFlow; });
  if (!reference_flows_.empty() && stream_has_flows) {
    const flow::FlowSetComparison& flows = flow_cmp_;
    flow::compare_flows_by_id(reference_.packets(), reference_flows_,
                              stream_packets_, stream_flows_, flow_ids_high_,
                              /*jobs=*/1, flow_arena_, &flow_cmp_,
                              stream_ref_);
    result.has_flows = true;
    result.flow_count = flows.aggregate.flows;
    result.flow_aggregate = flows.aggregate;
    if (config_.flow_top_k > 0) {
      // Ascending κ, ties on flow id: the order a stable sort of the id
      // list gives, selected with a partial sort.
      std::vector<std::size_t>& order = worst_flows_;
      order.clear();
      for (std::size_t f = 0; f < flows.flows.size(); ++f) {
        const flow::FlowComparison& fc = flows.flows[f];
        if (fc.in_a || fc.in_b) order.push_back(f);
      }
      const std::size_t k = std::min(order.size(), config_.flow_top_k);
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(k),
                        order.end(), [&](std::size_t x, std::size_t y) {
                          const double kx = flows.flows[x].metrics.kappa;
                          const double ky = flows.flows[y].metrics.kappa;
                          if (kx != ky) return kx < ky;
                          return x < y;
                        });
      order.resize(k);
      result.worst_flows.reserve(order.size());
      for (const std::size_t f : order) {
        result.worst_flows.push_back(flows.flows[f]);
      }
    }
  }

  streams_.push_back(std::move(result));
  if (!config_.async) tm_streams_.add();
  ++stream_ordinal_;
  stream_packets_.clear();
  stream_ref_.clear();
  stream_flows_.clear();
}

}  // namespace choir::monitor
