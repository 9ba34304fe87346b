// Self-test: every check the ops run must pass on the program's real
// output and reject a deliberately corrupted one (one timestamp shifted,
// one id dropped, one flow's packets moved). Runs at small scale.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "testbed/presets.hpp"
#include "trace/trace_file.hpp"

namespace perfbench {

namespace core = choir::core;
namespace flow = choir::flow;
namespace testbed = choir::testbed;
namespace trace = choir::trace;

namespace {

constexpr choir::Ns kShiftNs = 1'000'000;  // 1 ms: far above any rounding

bool passes(const std::function<void()>& check) {
  try {
    check();
    return true;
  } catch (const CheckFailure&) {
    return false;
  }
}

core::Trial with_shifted_time(const core::Trial& t, std::size_t k) {
  std::vector<core::TrialPacket> p = t.packets();
  p[k].time += kShiftNs;
  return core::Trial(std::move(p));
}

core::Trial without_packet(const core::Trial& t, std::size_t k) {
  std::vector<core::TrialPacket> p = t.packets();
  p.erase(p.begin() + static_cast<std::ptrdiff_t>(k));
  return core::Trial(std::move(p));
}

testbed::ExperimentResult small_run(testbed::EnvironmentPreset env, std::uint64_t packets,
                                    bool flows) {
  testbed::ExperimentConfig config;
  config.env = std::move(env);
  config.packets = packets;
  config.runs = 5;
  config.seed = 7;
  config.eval_jobs = 1;
  config.keep_captures = true;
  config.flow.enabled = flows;
  config.flow.flows = 256;
  return testbed::run_experiment(config);
}

}  // namespace

int run_selftest(const std::string& out_dir) {
  int bad = 0;
  const auto expect = [&](const char* name, const std::function<void()>& clean,
                          const std::function<void()>& corrupted) {
    const bool clean_ok = passes(clean);
    const bool rejected = !passes(corrupted);
    std::printf("%-52s clean %-4s corrupted %s\n", name, clean_ok ? "pass" : "FAIL",
                rejected ? "rejected" : "ACCEPTED");
    if (!clean_ok || !rejected) ++bad;
  };

  // replay_e2e: conservation, Eq. 5, op-to-op identity.
  {
    const testbed::ExperimentResult r = small_run(testbed::fabric_shared_40(), 4000, false);
    testbed::ExperimentResult dropped = r;
    dropped.capture_sizes[1] -= 1;
    expect("replay_e2e conservation (one id dropped)",
           [&] { check_conservation(r, 5); }, [&] { check_conservation(dropped, 5); });
    core::ConsistencyMetrics shifted = r.comparisons[0].metrics;
    shifted.latency += 1e-3;
    expect("replay_e2e kappa = Eq. 5 (one component shifted)",
           [&] { check_eq5(r.comparisons[0].metrics); }, [&] { check_eq5(shifted); });
    core::ConsistencyMetrics next = r.comparisons[0].metrics;
    next.kappa = std::nextafter(next.kappa, 0.0);
    expect("replay_e2e kappa identical across ops (last bit)",
           [&] { check_same_metrics(r.comparisons[0].metrics, r.comparisons[0].metrics, "op"); },
           [&] { check_same_metrics(r.comparisons[0].metrics, next, "op"); });
  }

  // kappa_offline: own U/L/I/LIS recomputation, A vs A, mapped vs memory.
  {
    const testbed::ExperimentResult r = small_run(testbed::local_dual(), 20000, false);
    const core::Trial a = testbed::rebased_trial(r.captures[0]);
    const core::Trial b = testbed::rebased_trial(r.captures[1]);
    core::ComparisonOptions copt;
    copt.collect_series = true;
    const core::ComparisonResult cmp = core::compare_trials(a, b, copt);
    const IdIndex index_a(a);
    const std::size_t mid = b.size() / 2;
    expect("kappa_offline U/L/I/LIS recomputed (timestamp shifted)",
           [&] { check_comparison(a, index_a, b, cmp); },
           [&] { check_comparison(a, index_a, with_shifted_time(b, mid), cmp); });
    expect("kappa_offline U/L/I/LIS recomputed (one id dropped)",
           [&] { check_comparison(a, index_a, b, cmp); },
           [&] { check_comparison(a, index_a, without_packet(b, mid), cmp); });
    expect("kappa_offline compare(A, A) = 1 (timestamp shifted)",
           [&] { require(core::compare_trials(a, a).metrics.kappa == 1.0, "A vs A"); },
           [&] {
             require(core::compare_trials(a, with_shifted_time(a, mid)).metrics.kappa == 1.0,
                     "A vs A");
           });

    const std::string dir = out_dir + "/selftest-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    trace::Capture shifted_capture;
    for (std::size_t i = 0; i < r.captures[1].size(); ++i) {
      trace::CaptureRecord rec = r.captures[1][i];
      if (i == mid) rec.timestamp += kShiftNs;
      shifted_capture.append(rec);
    }
    trace::write_trace(r.captures[1], dir + "/b.trc");
    trace::write_trace(shifted_capture, dir + "/b-shifted.trc");
    const auto mapped_kappa = [&](const std::string& path) {
      const core::Trial mb = testbed::rebased_trial(trace::MappedCapture(path));
      check_same_metrics(core::compare_trials(a, mb, copt).metrics, r.comparisons[0].metrics,
                         "mapped vs in-memory");
    };
    expect("kappa_offline mapped = in-memory (timestamp shifted)",
           [&] { mapped_kappa(dir + "/b.trc"); },
           [&] { mapped_kappa(dir + "/b-shifted.trc"); });
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  // monitored_flows: monitor finale + observed count, per-flow split.
  {
    const testbed::ExperimentResult r = small_run(testbed::chaos_single(1.0), 12000, true);
    std::vector<core::Trial> trials;
    for (const auto& c : r.captures) trials.push_back(testbed::rebased_trial(c));
    std::vector<core::ConsistencyMetrics> offline;
    for (std::size_t i = 1; i < trials.size(); ++i) {
      offline.push_back(core::compare_trials(trials[0], trials[i]).metrics);
    }
    std::uint64_t captured = 0;
    for (const auto& c : r.captures) captured += c.size();
    const auto monitored = [&](bool drop_one) {
      choir::monitor::MonitorConfig mcfg;
      mcfg.async = false;
      auto mon = std::make_unique<choir::monitor::StreamMonitor>(mcfg);
      for (std::size_t s = 0; s < r.captures.size(); ++s) {
        mon->begin_stream("run" + std::to_string(s));
        const trace::Capture& cap = r.captures[s];
        for (std::size_t i = 0; i < cap.size(); ++i) {
          if (drop_one && s == 1 && i == cap.size() / 2) continue;
          mon->observe(cap[i].packet_id(), cap[i].timestamp);
        }
      }
      mon->finalize();
      return mon;
    };
    const auto clean_mon = monitored(false);
    const auto dropped_mon = monitored(true);
    expect("monitored_flows monitor finale + observed (one id dropped)",
           [&] { check_monitor(*clean_mon, captured, offline); },
           [&] { check_monitor(*dropped_mon, captured, offline); });

    const trace::FlowClassification cls_a = trace::classify_capture(r.captures[0]);
    const trace::FlowClassification cls_b = trace::classify_capture(r.captures[1]);
    const flow::FlowSetComparison fc =
        flow::compare_flows(trials[0], cls_a.table, cls_a.per_packet, trials[1], cls_b.table,
                            cls_b.per_packet, 1);
    // The first of A's flows that has at least three packets in B.
    flow::FlowId target = flow::kNoFlow;
    std::vector<std::size_t> positions;
    for (flow::FlowId f = 0; f < cls_a.table.ids() && target == flow::kNoFlow; ++f) {
      positions.clear();
      for (std::size_t i = 0; i < trials[1].size(); ++i) {
        const flow::FlowId id = cls_b.per_packet[i];
        if (id != flow::kNoFlow && cls_b.table.key_of(id) == cls_a.table.key_of(f)) {
          positions.push_back(i);
        }
      }
      if (positions.size() >= 3) target = f;
    }
    require(target != flow::kNoFlow, "self-test found no flow to corrupt");
    // Move the flow's first packet to its last packet's place (and back):
    // the flow's packets swap positions while every timestamp stays.
    std::vector<core::TrialPacket> moved = trials[1].packets();
    std::swap(moved[positions.front()].id, moved[positions.back()].id);
    const core::Trial b_moved(std::move(moved));
    const flow::FlowId sample[] = {target};
    expect("monitored_flows per-flow kappa vs own split (flow moved)",
           [&] { check_flow_sample(trials[0], cls_a, trials[1], cls_b, fc, sample); },
           [&] { check_flow_sample(trials[0], cls_a, b_moved, cls_b, fc, sample); });
  }

  std::printf("%s: %d check(s) did not behave\n", bad == 0 ? "selftest passed" : "selftest FAILED",
              bad);
  return bad;
}

}  // namespace perfbench
