#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"

// Counting replacement of the global allocation functions, for the
// zero-allocation test below. Every test in this binary goes through it.
namespace {
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace choir::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesToEventTime) {
  EventQueue q;
  Ns seen = -1;
  q.schedule_at(123, [&] { seen = q.now(); });
  q.run();
  EXPECT_EQ(seen, 123);
  EXPECT_EQ(q.now(), 123);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  Ns seen = -1;
  q.schedule_at(100, [&] {
    q.schedule_in(50, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 150);
}

TEST(EventQueue, RejectsPastEvents) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(50, [] {}), Error);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(21, [&] { ++fired; });
  q.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenEmpty) {
  EventQueue q;
  q.run_until(500);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, EventsScheduledDuringRunAreProcessed) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) q.schedule_in(1, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), 99);
}

TEST(EventQueue, StepFiresExactlyOne) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] { ++fired; });
  q.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, CountsFiredEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.events_fired(), 7u);
}

TEST(EventQueue, PendingReflectsLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule_at(5, [] {});
  q.schedule_at(6, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StressManyEventsStayOrdered) {
  EventQueue q;
  Ns last = -1;
  bool ordered = true;
  // Pseudo-random times, checked monotone at execution.
  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Ns t = static_cast<Ns>(x % 1000000);
    q.schedule_at(t, [&, t] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  q.run();
  EXPECT_TRUE(ordered);
}

// --- Differential test against a reference model ------------------------

// The queue's contract in its plainest form: pending events in a vector,
// the least (at, seq) fires next.
struct ModelQueue {
  struct Event {
    Ns at;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::vector<Event> pending;
  Ns now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t fired = 0;

  void schedule(Ns at, std::uint64_t id) {
    pending.push_back(Event{at, next_seq++, id});
  }
  std::vector<Event>::iterator next() {
    return std::min_element(
        pending.begin(), pending.end(), [](const Event& a, const Event& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
  }
  Event pop() {
    const auto it = next();
    const Event e = *it;
    pending.erase(it);
    now = e.at;
    ++fired;
    return e;
  }
};

/// What one firing observed: its id and the queue's state inside it.
struct Firing {
  std::uint64_t id;
  Ns now;
  std::size_t pending;
  std::uint64_t fired;
  friend bool operator==(const Firing&, const Firing&) = default;
};

constexpr std::uint64_t kNestBudget = 30000;

/// Delays drawn from a coarse grid, so same-nanosecond ties (including
/// events at the current time) are common.
Ns grid_delay(Rng& r) {
  static constexpr Ns kGrid[] = {0, 0, 0, 1, 5, 10, 10, 100};
  return kGrid[r.uniform_u64(8)];
}

/// The nested schedules event `id` makes when it fires, derived from the
/// id alone so both sides make the same ones when they fire in the same
/// order.
template <class Schedule>
void nested_schedules(std::uint64_t id, Ns now, Schedule&& schedule) {
  if (id >= kNestBudget) return;
  Rng r(id * 0x9e3779b97f4a7c15ULL + 1);
  const std::uint64_t n = r.uniform_u64(3);
  for (std::uint64_t k = 0; k < n; ++k) schedule(now + grid_delay(r));
}

struct RealSide {
  EventQueue q;
  std::vector<Firing> log;
  std::uint64_t next_id = 0;

  struct Fire {
    RealSide* side;
    std::uint64_t id;
    void operator()() const {
      side->log.push_back(Firing{id, side->q.now(), side->q.pending(),
                                 side->q.events_fired()});
      nested_schedules(id, side->q.now(),
                       [this](Ns at) { side->schedule(at); });
    }
  };
  void schedule(Ns at) { q.schedule_at(at, Fire{this, next_id++}); }
};

struct ModelSide {
  ModelQueue q;
  std::vector<Firing> log;
  std::uint64_t next_id = 0;

  void schedule(Ns at) { q.schedule(at, next_id++); }
  bool step() {
    if (q.pending.empty()) return false;
    const ModelQueue::Event e = q.pop();
    log.push_back(Firing{e.id, q.now, q.pending.size(), q.fired});
    nested_schedules(e.id, q.now, [this](Ns at) { schedule(at); });
    return true;
  }
  void run_until(Ns until) {
    while (!q.pending.empty() && q.next()->at <= until) step();
    if (q.now < until) q.now = until;
  }
};

TEST(EventQueue, MatchesReferenceModelOnRandomSchedules) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    RealSide real;
    ModelSide model;
    Rng driver(seed);
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t kind = driver.uniform_u64(10);
      if (kind < 4) {
        const Ns at = real.q.now() + grid_delay(driver);
        real.schedule(at);
        model.schedule(at);
      } else if (kind < 7) {
        ASSERT_EQ(real.q.step(), model.step()) << "seed " << seed;
      } else {
        const Ns until = real.q.now() + static_cast<Ns>(driver.uniform_u64(40));
        real.q.run_until(until);
        model.run_until(until);
      }
      ASSERT_EQ(real.q.now(), model.q.now) << "seed " << seed << " op " << op;
      ASSERT_EQ(real.q.pending(), model.q.pending.size());
      ASSERT_EQ(real.q.empty(), model.q.pending.empty());
      ASSERT_EQ(real.q.events_fired(), model.q.fired);
      ASSERT_EQ(real.log.size(), model.log.size());
    }
    real.q.run();
    while (model.step()) {
    }
    EXPECT_EQ(real.q.now(), model.q.now);
    EXPECT_EQ(real.q.events_fired(), model.q.fired);
    EXPECT_TRUE(real.q.empty());
    ASSERT_EQ(real.log.size(), model.log.size());
    for (std::size_t i = 0; i < real.log.size(); ++i) {
      ASSERT_EQ(real.log[i], model.log[i])
          << "seed " << seed << " firing " << i;
    }
    // The schedule must exercise nesting and heavy ties to mean anything.
    EXPECT_GT(real.log.size(), 5000u);
  }
}

// --- Closure lifetimes ---------------------------------------------------

/// A capture that registers every live copy, so a double destruction or
/// a leaked copy shows up.
class Token {
 public:
  static std::map<const Token*, int>& live() {
    static std::map<const Token*, int> registry;
    return registry;
  }
  static int live_of(int id) {
    int n = 0;
    for (const auto& [ptr, owner] : live()) n += owner == id;
    return n;
  }

  explicit Token(int id) : id_(id) { enroll(); }
  Token(const Token& o) : id_(o.id_) { enroll(); }
  Token(Token&& o) noexcept : id_(o.id_) { enroll(); }
  Token& operator=(const Token&) = delete;
  ~Token() { EXPECT_EQ(live().erase(this), 1u) << "token " << id_; }

 private:
  void enroll() { EXPECT_TRUE(live().emplace(this, id_).second); }
  int id_;
};

TEST(EventQueue, ClosuresAreDestroyedExactlyOnce) {
  std::vector<int> ran;
  {
    EventQueue q;
    for (int i = 0; i < 6; ++i) {
      q.schedule_at(10 * (i + 1), [token = Token(i), i, &ran] {
        (void)token;
        ran.push_back(i);
      });
    }
    for (int i = 0; i < 6; ++i) EXPECT_EQ(Token::live_of(i), 1) << i;
    q.run_until(30);  // fires tokens 0..2
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
    for (int i = 0; i < 3; ++i) EXPECT_EQ(Token::live_of(i), 0) << i;
    for (int i = 3; i < 6; ++i) EXPECT_EQ(Token::live_of(i), 1) << i;

    // A throwing callback is destroyed too, and its slot is reused.
    q.schedule_at(35, [token = Token(99)] {
      (void)token;
      throw std::runtime_error("boom");
    });
    EXPECT_THROW(q.run_until(35), std::runtime_error);
    EXPECT_EQ(Token::live_of(99), 0);
    q.schedule_at(36, [token = Token(100), &ran] {
      (void)token;
      ran.push_back(100);
    });
    q.run_until(36);
    EXPECT_EQ(ran.back(), 100);
    EXPECT_EQ(Token::live_of(100), 0);
    EXPECT_EQ(q.pending(), 3u);  // tokens 3..5 are still pending
  }
  EXPECT_EQ(ran.size(), 4u);  // the pending ones were destroyed, not run
  EXPECT_TRUE(Token::live().empty());
}

// --- Allocation-free steady state ----------------------------------------

TEST(EventQueue, SteadyStateSchedulesWithoutAllocating) {
  EventQueue q;
  std::uint64_t sink = 0;
  std::uint64_t x = 7;
  // A rolling window of 512 pending events (two slab chunks) with three
  // closure sizes: each fired event schedules its successor.
  struct Big {
    std::uint64_t* sink;
    std::uint64_t pad[8];
  };
  static_assert(sizeof(Big) == EventQueue::kClosureBytes);
  auto schedule_one = [&](int i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Ns at = q.now() + static_cast<Ns>(x % 1000);
    switch (i % 3) {
      case 0:
        q.schedule_at(at, [&sink] { ++sink; });
        break;
      case 1:
        q.schedule_at(at, [&sink, a = x, b = at, c = i] {
          sink += a + static_cast<std::uint64_t>(b) + c;
        });
        break;
      default:
        q.schedule_at(at, [big = Big{&sink, {x, 1, 2, 3, 4, 5, 6, 7}}] {
          *big.sink += big.pad[0];
        });
        break;
    }
  };
  for (int i = 0; i < 512; ++i) schedule_one(i);
  for (int i = 0; i < 100000; ++i) {  // warm-up
    q.step();
    schedule_one(i);
  }
  std::uint64_t before = g_allocations;
  int* volatile probe = new int(1);  // the counting hook is live
  delete probe;
  ASSERT_EQ(g_allocations, before + 1);
  before = g_allocations;
  for (int i = 0; i < 100000; ++i) {
    q.step();
    schedule_one(i);
  }
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(q.pending(), 512u);
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace choir::sim
