// Host clocks, the reference-loop normaliser and the span log.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// The loop has three parts of about equal time, all fixed benchmark code:
//
//  - a random walk of dependent loads over 16 MiB of slots, eight times
//    this host's 2 MiB L2, so every step misses to the shared cache or
//    to DRAM;
//  - a sort of fixed pseudo-random values (L2-resident, branchy);
//  - a small discrete-event loop: a binary heap of timed std::function
//    events, a hash map and short-lived heap blocks, the shape of the
//    program's own hot path.
//
// On a host shared with other tenants the walk and the sort alone moved
// less than the program's ops when the host slowed down, and the event
// loop alone moved more; the sum tracked them best (see README.md).
constexpr std::size_t kWalkSlots = std::size_t{1} << 22;
constexpr std::size_t kWalkSteps = std::size_t{1} << 16;
constexpr std::size_t kSortValues = std::size_t{1} << 17;
constexpr int kEvents = 35'000;
constexpr std::uint64_t kRefSeed = 0x5245464c4f4f50ULL;  // fixed: not --seed

volatile std::uint64_t g_ref_sink = 0;

struct RefState {
  std::vector<std::uint32_t> next;  ///< one Sattolo cycle over all slots
  std::vector<std::uint32_t> sort_src;
  std::vector<std::uint32_t> sort_buf;

  RefState() : next(kWalkSlots), sort_src(kSortValues), sort_buf(kSortValues) {
    std::uint64_t rng = kRefSeed;
    for (std::size_t i = 0; i < kWalkSlots; ++i) next[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kWalkSlots - 1; i > 0; --i) {
      const std::size_t j = splitmix64(rng) % i;  // Sattolo: j < i
      std::swap(next[i], next[j]);
    }
    for (auto& v : sort_src) v = static_cast<std::uint32_t>(splitmix64(rng));
  }
};

RefState& ref_state() {
  static RefState state;
  return state;
}

struct RefEvent {
  std::uint64_t at;
  std::uint64_t seq;
  std::function<void()> fire;
  bool operator>(const RefEvent& o) const { return at != o.at ? at > o.at : seq > o.seq; }
};

std::uint64_t event_loop() {
  std::uint64_t rng = kRefSeed;
  std::uint64_t seq = 0;
  std::uint64_t acc = 0;
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<RefEvent>> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::unique_ptr<std::uint64_t[]>> live;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t k = splitmix64(rng);
    queue.push(RefEvent{k % 100'000, seq++, [&acc, k] { acc += k; }});
  }
  for (int i = 0; i < kEvents; ++i) {
    RefEvent e = queue.top();
    queue.pop();
    e.fire();
    const std::uint64_t k = splitmix64(rng);
    table[k & 0x1ffff] += e.at;
    auto block = std::make_unique<std::uint64_t[]>(8);
    block[0] = k;
    live.push_back(std::move(block));
    if (live.size() > 2048) {
      live[k % live.size()].swap(live.back());
      live.pop_back();
    }
    queue.push(RefEvent{e.at + 1 + k % 1000, seq++, [&acc, k] { acc ^= k; }});
  }
  return acc + table.size();
}

RefParts g_last_parts;

}  // namespace

RefParts last_reference_parts() { return g_last_parts; }

double run_reference_loop() {
  RefState& st = ref_state();
  const double t0 = thread_cpu_s();
  std::uint32_t at = 0;
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kWalkSteps; ++k) {
    at = st.next[at];
    sum += at;
  }
  const double t1 = thread_cpu_s();
  std::copy(st.sort_src.begin(), st.sort_src.end(), st.sort_buf.begin());
  std::sort(st.sort_buf.begin(), st.sort_buf.end());
  const double t2 = thread_cpu_s();
  sum += event_loop();
  const double t3 = thread_cpu_s();
  const double dt = t3 - t0;
  g_last_parts = RefParts{t1 - t0, t2 - t1, t3 - t2};
  // Publish the results so no part can be optimised away.
  g_ref_sink = sum + st.sort_buf[kSortValues / 2];
  return dt;
}

// ---- SpanLog ---------------------------------------------------------------

SpanLog& spans() {
  static SpanLog log;
  return log;
}

// The log's own bookkeeping allocates (map nodes, vector growth); it
// runs with counting paused so only the spanned call's allocations count.
void SpanLog::begin(const char* name) {
  const bool counting = alloc_counting();
  set_alloc_counting(false);
  stack_.push_back(Open{name, 0.0, {}});
  stack_.back().alloc_start = alloc_counts();
  stack_.back().start_s = wall_s();
  set_alloc_counting(counting);
}

void SpanLog::end() {
  const double now = wall_s();
  const AllocCounts ac = alloc_counts();
  const bool counting = alloc_counting();
  set_alloc_counting(false);
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = now - open.start_s;
  Total& t = op_[open.name];
  t.total_s += dur;
  t.allocs += ac.allocs - open.alloc_start.allocs;
  t.alloc_bytes += ac.bytes - open.alloc_start.bytes;
  closed_.push_back(Closed{open.name, open.start_s, dur,
                           static_cast<std::uint32_t>(stack_.size())});
  set_alloc_counting(counting);
}

std::map<std::string, SpanLog::Total> SpanLog::take_op() {
  std::map<std::string, Total> out;
  out.swap(op_);
  return out;
}

std::string SpanLog::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  double epoch = closed_.empty() ? 0.0 : closed_.front().start_s;
  for (const Closed& c : closed_) epoch = std::min(epoch, c.start_s);
  char buf[256];
  for (std::size_t i = 0; i < closed_.size(); ++i) {
    const Closed& c = closed_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%u}}",
                  i == 0 ? "" : ",", c.name, 1e6 * (c.start_s - epoch),
                  1e6 * c.dur_s, c.depth);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
