// Shared pieces of the record -> replay -> κ benchmark program: host
// clocks and the reference-loop normaliser, the counting allocator's
// counters, the in-memory span log, and the per-workload entry points.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// ---- Host clocks -----------------------------------------------------------

/// CPU time of the calling thread, in seconds.
double thread_cpu_s();
/// Monotonic wall time, in seconds.
double wall_s();
/// Peak resident set of the process, in MB.
double peak_rss_mb();

/// Fixed reference work: a seeded random walk over a buffer several
/// times the size of L2, a sort, and a small discrete-event loop (see
/// host.cpp). Returns the thread CPU seconds it took. No change to the
/// program can move it; what moves it is the host (memory and cache
/// contention from other tenants).
double run_reference_loop();

/// Seconds of the last reference loop's three parts.
struct RefParts {
  double walk_s = 0, sort_s = 0, events_s = 0;
};
RefParts last_reference_parts();

/// Nominal reference-loop time: normalised seconds are thread CPU
/// seconds x (kNominalRefS / measured reference-loop seconds).
inline constexpr double kNominalRefS = 0.037;

/// splitmix64 step: the benchmark's own seeded generator.
std::uint64_t splitmix64(std::uint64_t& state);

// ---- Counting allocator ----------------------------------------------------

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Switch counting on or off (off by default; the replacement
/// operator new forwards to malloc either way).
void set_alloc_counting(bool on);
bool alloc_counting();
/// Totals since the process started counting.
AllocCounts alloc_counts();

// ---- Spans -----------------------------------------------------------------

/// In-memory span log for the traced run: each span around a call into
/// a layer keeps its wall duration and the allocations made inside it.
/// Spans may nest; totals are inclusive.
class SpanLog {
 public:
  struct Total {
    double total_s = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void begin(const char* name);
  void end();

  /// Per-name totals of the spans closed since the last take_op().
  std::map<std::string, Total> take_op();

  /// Every span closed so far, as Chrome-trace JSON (written when the
  /// run ends).
  std::string chrome_trace_json() const;

 private:
  struct Open {
    const char* name;
    double start_s;
    AllocCounts alloc_start;
  };
  struct Closed {
    const char* name;
    double start_s;
    double dur_s;
    std::uint32_t depth;
  };
  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Closed> closed_;
  std::map<std::string, Total> op_;
};

SpanLog& spans();

/// RAII span on the global log; a no-op when the log is disabled.
class Span {
 public:
  explicit Span(const char* name) : on_(spans().enabled()) {
    if (on_) spans().begin(name);
  }
  ~Span() {
    if (on_) spans().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// ---- Checks ----------------------------------------------------------------

/// Thrown when a program output disagrees with the benchmark's own
/// computation; the op counts as failed.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// ---- Workloads -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

/// One timed operation of a workload: the per-op layer totals (traced
/// runs) and the packets that went through the op's layers.
struct OpReport {
  std::uint64_t packets = 0;
  std::map<std::string, double> layer;  ///< per-layer values of this op
};

/// A workload: set-up builds the inputs, op() is the timed unit and
/// check() verifies the last op's outputs afterwards, untimed, throwing
/// CheckFailure on a mismatch. Every op of a run repeats identical work.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(const Options& options) = 0;
  /// `profiled`: the traced run alternates ops with the program's own
  /// span profiler installed (layer split inside the program's calls)
  /// and ops without it (exact allocation counts, unperturbed by the
  /// profiler's bookkeeping).
  virtual OpReport op(bool profiled) = 0;
  virtual void check() = 0;
  /// Whether the traced run needs profiled ops at all.
  virtual bool uses_program_profiler() const { return false; }
};

std::vector<std::string> workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Feed every check a deliberately corrupted input and show that it
/// fails; returns the number of checks that misbehaved (0 = pass).
/// Scratch trace files go under `dir`.
int run_selftest(const std::string& dir);

}  // namespace perfbench
