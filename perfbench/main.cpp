// perfbench: runs one workload on one thread for --seconds,
// checks every op's outputs, and prints the result as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir DIR]
//   perfbench --selftest [--out-dir DIR]
//
// Times are thread CPU seconds normalised by the reference loop (see
// run_reference_loop), which runs right after each op: normalised = cpu x
// nominal / reference, where reference is the mean of the loop's time
// after this op and after the one before, so it brackets the op.
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics from the benchmark's spans, the program's own span
// profiler and the counting allocator.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinOps = 3;
// The traced run's first op pays one-time lazy initialisation (first-use
// allocations of statics), so its layer values are left out; at least two
// profiled and two counted ops remain.
constexpr int kMinTracedOps = 5;

struct Unit {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A workload that does
// not run a layer reports 0 for it.
constexpr Unit kLayerMetrics[] = {
    {"testbed.build_s", "s"},
    {"testbed.evaluate_self_s", "s"},
    {"sim.loop_self_s", "s"},
    {"choir.replay_emit_s", "s"},
    {"choir.replay_pace_s", "s"},
    {"trace.record_drain_s", "s"},
    {"trace.write_s", "s"},
    {"trace.map_s", "s"},
    {"core.trial_build_s", "s"},
    {"core.ref_index_s", "s"},
    {"core.compare_s", "s"},
    {"core.align_s", "s"},
    {"trace.classify_s", "s"},
    {"monitor.finalize_s", "s"},
    {"flow.compare_flows_s", "s"},
    {"monitor.observe_ns_per_pkt", "ns/pkt"},
    {"testbed.allocs_per_pkt", "allocs/pkt"},
    {"testbed.alloc_bytes_per_pkt", "B/pkt"},
    {"core.allocs_per_cmp", "allocs/cmp"},
    {"core.trial_allocs_per_pkt", "allocs/pkt"},
    {"monitor.allocs_per_pkt", "allocs/pkt"},
    {"flow.allocs_per_flow", "allocs/flow"},
    {"choir.replayed_pkts", "pkt"},
    {"choir.replayed_bursts", "bursts"},
    {"monitor.windows", "windows"},
    {"monitor.divergence_records", "records"},
    {"host.ref_s", "s"},
    {"host.op_wall_s", "s"},
    {"host.traced_op_s", "s"},
    {"host.pkts_per_op", "pkt"},
};

bool is_time(const std::string& name) {
  return name.ends_with("_s") || name.ends_with("_ns_per_pkt");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir DIR]\n"
               "       perfbench --selftest [--out-dir DIR]\nworkloads:");
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (!workload) return usage();
  run_reference_loop();  // builds the walk buffer outside any timing
  double prev_ref = run_reference_loop();
  spans().set_enabled(options.trace);

  std::vector<double> setup_norm;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double c0 = thread_cpu_s();
    workload->setup(options);
    const double cpu = thread_cpu_s() - c0;
    const double ref = run_reference_loop();
    setup_norm.push_back(cpu * kNominalRefS / (0.5 * (prev_ref + ref)));
    prev_ref = ref;
    const RefParts parts = last_reference_parts();
    std::fprintf(stderr,
                 "setup %d: cpu %.4f s, ref %.4f s, normalised %.4f s, ref parts %.4f %.4f "
                 "%.4f\n",
                 i, cpu, ref, setup_norm.back(), parts.walk_s, parts.sort_s, parts.events_s);
  }

  const bool alternate = options.trace && workload->uses_program_profiler();
  const int min_ops = options.trace ? kMinTracedOps : kMinOps;
  std::vector<double> op_norm, op_cpu, op_wall, refs, pkts_per_s, pkts_per_op;
  std::map<std::string, std::vector<double>> layers;
  int attempted = 0;
  int failed = 0;
  int wrong = 0;
  const double deadline = wall_s() + options.seconds;
  while (attempted < min_ops || wall_s() < deadline) {
    const bool profiled = alternate && attempted % 2 == 1;
    ++attempted;
    OpReport rep;
    const double w0 = wall_s();
    const double c0 = thread_cpu_s();
    set_alloc_counting(options.trace && !profiled);
    try {
      rep = workload->op(profiled);
    } catch (const std::exception& e) {
      set_alloc_counting(false);
      spans().take_op();
      ++failed;
      std::fprintf(stderr, "op %d threw: %s\n", attempted, e.what());
      continue;
    }
    set_alloc_counting(false);
    const double cpu = thread_cpu_s() - c0;
    const double wall = wall_s() - w0;
    const double ref = run_reference_loop();
    const RefParts parts = last_reference_parts();
    const double scale = kNominalRefS / (0.5 * (prev_ref + ref));
    prev_ref = ref;
    const double check_w0 = wall_s();
    try {
      workload->check();
    } catch (const std::exception& e) {
      ++failed;
      ++wrong;
      std::fprintf(stderr, "op %d failed its check: %s\n", attempted, e.what());
      continue;
    }
    const double norm = cpu * scale;
    op_norm.push_back(norm);
    op_cpu.push_back(cpu);
    op_wall.push_back(wall);
    refs.push_back(ref);
    pkts_per_s.push_back(static_cast<double>(rep.packets) / norm);
    pkts_per_op.push_back(static_cast<double>(rep.packets));
    if (attempted > 1) {
      for (const auto& [name, value] : rep.layer) {
        layers[name].push_back(is_time(name) ? value * scale : value);
      }
    }
    std::fprintf(stderr,
                 "op %d%s: cpu %.4f s, wall %.4f s, ref %.4f s, normalised %.4f s, "
                 "%llu pkts, checked in %.3f s, ref parts %.4f %.4f %.4f\n",
                 attempted, profiled ? " (profiled)" : "", cpu, wall, ref, norm,
                 static_cast<unsigned long long>(rep.packets), wall_s() - check_w0,
                 parts.walk_s, parts.sort_s, parts.events_s);
  }

  std::fprintf(stderr,
               "%d ops, %d failed; median host.ref_s %.4f, host.op_wall_s %.4f, raw cpu "
               "%.4f s, normalised %.4f s\n",
               attempted, failed, median(refs), median(op_wall), median(op_cpu),
               median(op_norm));

  const bool correct = wrong == 0 && !op_norm.empty();
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {{"pkts_per_s", median(pkts_per_s), "pkt/s"},
               {"op_s", median(op_norm), "s"},
               {"setup_s", median(setup_norm), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    layers["host.ref_s"] = refs;
    layers["host.op_wall_s"] = op_wall;
    layers["host.traced_op_s"] = op_norm;
    layers["host.pkts_per_op"] = pkts_per_op;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers.find(name);
      metrics.push_back({name, it == layers.end() ? 0.0 : median(it->second), unit});
      if (it != layers.end() && !is_time(name) &&
          *std::min_element(it->second.begin(), it->second.end()) !=
              *std::max_element(it->second.begin(), it->second.end())) {
        std::fprintf(stderr, "warning: count %s differs between ops\n", name);
      }
    }
    const std::string path = options.out_dir + "/spans-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    std::ofstream(path) << spans().chrome_trace_json();
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  try {
    if (selftest) return run_selftest(options.out_dir) == 0 ? 0 : 1;
    if (!have_workload) return usage();
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
