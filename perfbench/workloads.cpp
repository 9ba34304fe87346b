// The three workloads. Each op repeats identical work on one thread
// (eval_jobs = 1, synchronous monitor, jobs = 1 for flows), so every op
// of a run does the same computation and its exact counts repeat.
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "core/compare_scratch.hpp"
#include "flow/flow_kappa.hpp"
#include "monitor/stream_monitor.hpp"
#include "telemetry/span_profiler.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"
#include "trace/flow_classify.hpp"
#include "trace/trace_file.hpp"

namespace perfbench {

namespace core = choir::core;
namespace flow = choir::flow;
namespace monitor = choir::monitor;
namespace telemetry = choir::telemetry;
namespace testbed = choir::testbed;
namespace trace = choir::trace;

namespace {

constexpr int kRuns = 5;  // A plus B..E, as in the paper
const char* const kRunNames[kRuns] = {"A", "B", "C", "D", "E"};

/// Layer times from the program's own span profiler (profiled ops).
double profiled_total_s(const telemetry::SpanProfiler& p, const char* name) {
  const auto it = p.aggregates().find(name);
  return it == p.aggregates().end() ? 0.0 : 1e-9 * static_cast<double>(it->second.total_ns);
}
double profiled_self_s(const telemetry::SpanProfiler& p, const char* name) {
  const auto it = p.aggregates().find(name);
  return it == p.aggregates().end() ? 0.0 : 1e-9 * static_cast<double>(it->second.self_ns());
}

const SpanLog::Total& span_total(const std::map<std::string, SpanLog::Total>& t,
                                 const char* name) {
  static const SpanLog::Total kNone;
  const auto it = t.find(name);
  return it == t.end() ? kNone : it->second;
}

double per(std::uint64_t count, std::uint64_t base) {
  return base == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(base);
}

// ---- replay_e2e --------------------------------------------------------------
//
// One op is the paper's full pipeline: run_experiment on fabric-shared-40G,
// 120k packets per trial, runs A..E, every observer off. The event loop
// (sim, net, pktio, gen, choir, the trace recorder) dominates; κ is ~10%.
class ReplayE2E final : public Workload {
 public:
  void setup(const Options& options) override {
    config_ = testbed::ExperimentConfig{};
    config_.env = testbed::fabric_shared_40();
    config_.packets = 120'000;
    config_.runs = kRuns;
    config_.seed = options.seed;
    config_.eval_jobs = 1;
    first_.reset();
    // Warm-up op: fills the allocator's arenas and the caches, so the
    // timed ops see the steady state a long-running user would.
    result_ = testbed::run_experiment(config_);
  }

  OpReport op(bool profiled) override {
    OpReport rep;
    std::optional<telemetry::SpanProfiler> profiler;
    std::optional<telemetry::ScopedProfiler> installed;
    if (profiled) {
      profiler.emplace();
      installed.emplace(&*profiler);
    }
    {
      Span s("testbed.run_experiment");
      result_ = testbed::run_experiment(config_);
    }
    installed.reset();
    const auto t = spans().take_op();
    for (const std::size_t n : result_.capture_sizes) rep.packets += n;
    if (profiled) {
      rep.layer["testbed.build_s"] = profiled_total_s(*profiler, "experiment.build");
      rep.layer["testbed.evaluate_self_s"] = profiled_self_s(*profiler, "experiment.evaluate");
      rep.layer["sim.loop_self_s"] = profiled_self_s(*profiler, "experiment.run");
      rep.layer["choir.replay_emit_s"] = profiled_total_s(*profiler, "replay.emit");
      rep.layer["choir.replay_pace_s"] = profiled_self_s(*profiler, "replay.pace");
      rep.layer["trace.record_drain_s"] = profiled_total_s(*profiler, "record.drain");
      rep.layer["core.compare_s"] = profiled_total_s(*profiler, "kappa.compare");
      rep.layer["core.align_s"] = profiled_total_s(*profiler, "kappa.align");
    } else if (spans().enabled()) {
      const SpanLog::Total& run = span_total(t, "testbed.run_experiment");
      rep.layer["testbed.allocs_per_pkt"] = per(run.allocs, rep.packets);
      rep.layer["testbed.alloc_bytes_per_pkt"] = per(run.alloc_bytes, rep.packets);
      std::uint64_t pkts = 0;
      std::uint64_t bursts = 0;
      for (const auto& mb : result_.middlebox_stats) {
        pkts += mb.replayed_packets;
        bursts += mb.replayed_bursts;
      }
      rep.layer["choir.replayed_pkts"] = static_cast<double>(pkts);
      rep.layer["choir.replayed_bursts"] = static_cast<double>(bursts);
    }
    return rep;
  }

  void check() override {
    check_conservation(result_, kRuns);
    if (!first_) {
      first_ = result_.comparisons;
      return;
    }
    for (std::size_t i = 0; i < first_->size(); ++i) {
      check_same_metrics(result_.comparisons[i].metrics, (*first_)[i].metrics,
                         "kappa differs between ops of one run");
    }
  }

  bool uses_program_profiler() const override { return true; }

 private:
  testbed::ExperimentConfig config_;
  testbed::ExperimentResult result_;
  std::optional<std::vector<core::ComparisonResult>> first_;
};

// ---- kappa_offline -------------------------------------------------------------
//
// Set-up records and replays local-dual once at 500k packets per trial
// and writes A..E as trace files. One op is `choirctl compare`'s path on
// them: map, build trials, index A once, compare B..E with series on. No
// simulation runs; the whole-burst reordering of local-dual makes the
// LIS and the edit script do real work on large trials.
class KappaOffline final : public Workload {
 public:
  ~KappaOffline() override { remove_traces(); }

  void setup(const Options& options) override {
    remove_traces();
    testbed::ExperimentConfig config;
    config.env = testbed::local_dual();
    config.packets = 500'000;
    config.runs = kRuns;
    config.seed = options.seed;
    config.eval_jobs = 1;
    config.keep_captures = true;
    config.collect_series = false;  // only the metrics are compared
    testbed::ExperimentResult result = testbed::run_experiment(config);
    in_memory_ = result.comparisons;
    dir_ = options.out_dir + "/kappa_offline-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    paths_.clear();
    for (int r = 0; r < kRuns; ++r) {
      paths_.push_back(dir_ + "/run" + kRunNames[r] + ".trc");
      Span s("trace.write");
      trace::write_trace(result.captures[r], paths_.back());
    }
    setup_write_s_ = span_total(spans().take_op(), "trace.write").total_s;
  }

  OpReport op(bool profiled) override {
    OpReport rep;
    std::optional<telemetry::SpanProfiler> profiler;
    std::optional<telemetry::ScopedProfiler> installed;
    if (profiled) {
      profiler.emplace();
      installed.emplace(&*profiler);
    }
    trials_.assign(kRuns, core::Trial{});
    for (int r = 0; r < kRuns; ++r) {
      std::optional<trace::MappedCapture> mapped;
      {
        Span s("trace.map");
        mapped.emplace(paths_[r]);
      }
      Span s("core.trial_build");
      trials_[r] = testbed::rebased_trial(*mapped);
    }
    std::optional<core::ReferenceIndex> index;
    {
      Span s("core.ref_index");
      index.emplace(trials_[0]);
    }
    core::CompareScratch scratch;
    scratch.shared_ref = &*index;
    core::ComparisonOptions copt;
    copt.collect_series = true;
    results_.assign(kRuns - 1, core::ComparisonResult{});
    for (int r = 1; r < kRuns; ++r) {
      Span s("core.compare");
      results_[r - 1] = core::compare_trials(trials_[0], trials_[r], copt, scratch);
    }
    installed.reset();
    const auto t = spans().take_op();
    for (const auto& tr : trials_) rep.packets += tr.size();
    if (profiled) {
      rep.layer["core.align_s"] = profiled_total_s(*profiler, "kappa.align");
    } else if (spans().enabled()) {
      rep.layer["trace.write_s"] = setup_write_s_;
      rep.layer["trace.map_s"] = span_total(t, "trace.map").total_s;
      rep.layer["core.trial_build_s"] = span_total(t, "core.trial_build").total_s;
      rep.layer["core.ref_index_s"] = span_total(t, "core.ref_index").total_s;
      rep.layer["core.compare_s"] = span_total(t, "core.compare").total_s;
      rep.layer["core.allocs_per_cmp"] =
          per(span_total(t, "core.compare").allocs, kRuns - 1);
      rep.layer["core.trial_allocs_per_pkt"] =
          per(span_total(t, "core.trial_build").allocs, rep.packets);
    }
    return rep;
  }

  void check() override {
    const IdIndex index_a(trials_[0]);
    for (int r = 1; r < kRuns; ++r) {
      check_comparison(trials_[0], index_a, trials_[r], results_[r - 1]);
      check_same_metrics(results_[r - 1].metrics, in_memory_[r - 1].metrics,
                         "kappa from mapped traces vs in-memory run");
    }
    const core::ComparisonResult self = core::compare_trials(trials_[0], trials_[0]);
    require(self.metrics.kappa == 1.0, "compare_trials(A, A) gives kappa != 1");
  }

  bool uses_program_profiler() const override { return true; }

 private:
  void remove_traces() {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }

  std::string dir_;
  std::vector<std::string> paths_;
  std::vector<core::ComparisonResult> in_memory_;
  double setup_write_s_ = 0.0;
  std::vector<core::Trial> trials_;
  std::vector<core::ComparisonResult> results_;
};

// ---- monitored_flows -----------------------------------------------------------
//
// Set-up runs chaos_single(1.0) with 4096 flows at 120k packets per trial
// and keeps the captures. One op classifies each run, streams A..E with
// flow ids through a synchronous StreamMonitor, finalizes it, and runs
// compare_flows for B..E against A. The chaos losses and duplicates
// drive missing/extra attribution and occurrence tagging.
class MonitoredFlows final : public Workload {
 public:
  void setup(const Options& options) override {
    testbed::ExperimentConfig config;
    config.env = testbed::chaos_single(1.0);
    config.packets = 120'000;
    config.runs = kRuns;
    config.seed = options.seed;
    config.eval_jobs = 1;
    config.keep_captures = true;
    config.collect_series = false;
    config.flow.enabled = true;
    config.flow.flows = 4096;
    testbed::ExperimentResult result = testbed::run_experiment(config);
    captures_ = std::move(result.captures);
    trials_.clear();
    for (int r = 0; r < kRuns; ++r) trials_.push_back(testbed::rebased_trial(captures_[r]));
    offline_.clear();
    sample_ = sample_flows(options.seed, 4096, 8);
  }

  OpReport op(bool) override {
    OpReport rep;
    cls_.clear();
    for (int r = 0; r < kRuns; ++r) {
      Span s("trace.classify");
      cls_.push_back(trace::classify_capture(captures_[r]));
    }
    std::vector<std::vector<flow::FlowId>> ids;
    for (int r = 0; r < kRuns; ++r) ids.push_back(ids_in_a_space(r));
    monitor::MonitorConfig mcfg;
    mcfg.async = false;
    monitor_.emplace(mcfg);
    {
      Span s("monitor.observe");
      for (int r = 0; r < kRuns; ++r) {
        monitor_->begin_stream(kRunNames[r]);
        const trace::Capture& cap = captures_[r];
        for (std::size_t i = 0; i < cap.size(); ++i) {
          monitor_->observe(cap[i].packet_id(), cap[i].timestamp, ids[r][i]);
        }
      }
    }
    {
      Span s("monitor.finalize");
      monitor_->finalize();
    }
    flows_.clear();
    {
      Span s("flow.compare_flows");
      for (int r = 1; r < kRuns; ++r) {
        flows_.push_back(flow::compare_flows(trials_[0], cls_[0].table,
                                             cls_[0].per_packet, trials_[r],
                                             cls_[r].table, cls_[r].per_packet, 1));
      }
    }
    const auto t = spans().take_op();
    rep.packets = monitor_->observed();
    if (spans().enabled()) {
      const SpanLog::Total& observe = span_total(t, "monitor.observe");
      const SpanLog::Total& fin = span_total(t, "monitor.finalize");
      const SpanLog::Total& cmp = span_total(t, "flow.compare_flows");
      std::uint64_t flows = 0;
      for (const auto& f : flows_) flows += f.flows.size();
      rep.layer["trace.classify_s"] = span_total(t, "trace.classify").total_s;
      rep.layer["monitor.finalize_s"] = fin.total_s;
      rep.layer["flow.compare_flows_s"] = cmp.total_s;
      rep.layer["monitor.observe_ns_per_pkt"] = 1e9 * observe.total_s / static_cast<double>(rep.packets);
      rep.layer["monitor.allocs_per_pkt"] = per(observe.allocs + fin.allocs, rep.packets);
      rep.layer["flow.allocs_per_flow"] = per(cmp.allocs, flows);
      rep.layer["monitor.windows"] = static_cast<double>(monitor_->windows().size());
      rep.layer["monitor.divergence_records"] =
          static_cast<double>(monitor_->divergence().size());
    }
    return rep;
  }

  void check() override {
    if (offline_.empty()) {  // reference finales, computed on first use
      for (int r = 1; r < kRuns; ++r) {
        offline_.push_back(core::compare_trials(trials_[0], trials_[r]).metrics);
      }
    }
    std::uint64_t captured = 0;
    for (const auto& c : captures_) captured += c.size();
    check_monitor(*monitor_, captured, offline_);
    for (int r = 1; r < kRuns; ++r) {
      check_flow_sample(trials_[0], cls_[0], trials_[r], cls_[r], flows_[r - 1], sample_);
    }
  }

 private:
  /// Run r's flow ids mapped into run A's id space by key (the monitor's
  /// per-flow finale needs one id space, as the recorder's persistent
  /// classifier gives it); flows absent from A get ids past A's.
  std::vector<flow::FlowId> ids_in_a_space(int r) const {
    if (r == 0) return cls_[0].per_packet;
    const flow::FlowTable& ta = cls_[0].table;
    const flow::FlowTable& tb = cls_[r].table;
    std::vector<flow::FlowId> remap(tb.ids(), flow::kNoFlow);
    flow::FlowId next = static_cast<flow::FlowId>(ta.ids());
    for (flow::FlowId id = 0; id < tb.ids(); ++id) {
      const flow::FlowId a = ta.lookup(tb.key_of(id));
      remap[id] = a != flow::kNoFlow ? a : next++;
    }
    std::vector<flow::FlowId> out(cls_[r].per_packet.size(), flow::kNoFlow);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const flow::FlowId id = cls_[r].per_packet[i];
      if (id != flow::kNoFlow) out[i] = remap[id];
    }
    return out;
  }

  std::vector<trace::Capture> captures_;
  std::vector<core::Trial> trials_;
  std::vector<core::ConsistencyMetrics> offline_;
  std::vector<flow::FlowId> sample_;
  std::vector<trace::FlowClassification> cls_;
  std::optional<monitor::StreamMonitor> monitor_;
  std::vector<flow::FlowSetComparison> flows_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"replay_e2e", "kappa_offline", "monitored_flows"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "replay_e2e") return std::make_unique<ReplayE2E>();
  if (name == "kappa_offline") return std::make_unique<KappaOffline>();
  if (name == "monitored_flows") return std::make_unique<MonitoredFlows>();
  return nullptr;
}

}  // namespace perfbench
