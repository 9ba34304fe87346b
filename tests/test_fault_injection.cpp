// FaultInjector behaviour at each layer: link faults (drop, down,
// corrupt, duplicate, reorder), NIC stalls/truncation, and forced memory
// pressure — plus full pool recovery after an exhaustion window (no
// leaked references).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fault/active_windows.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "net/link.hpp"
#include "pktio/ethdev.hpp"
#include "pktio/mbuf.hpp"
#include "sim/event_queue.hpp"

namespace choir::fault {
namespace {

/// Endpoint that releases everything it receives and keeps tallies.
struct CountingSink : net::Endpoint {
  std::uint64_t delivered = 0;
  std::uint64_t bad_fcs = 0;
  std::vector<Ns> times;
  std::vector<std::uint32_t> ids;  ///< wire_len doubles as a frame id
  void deliver(pktio::Mbuf* pkt, Ns wire_time) override {
    ++delivered;
    if (pkt->frame.invalid_fcs) ++bad_fcs;
    times.push_back(wire_time);
    ids.push_back(pkt->frame.wire_len);
    pktio::Mempool::release(pkt);
  }
};

FaultEvent window_event(FaultKind kind, Ns start, Ns duration, double p = 1.0,
                        Ns delay = 0) {
  FaultEvent e;
  e.kind = kind;
  e.start = start;
  e.duration = duration;
  e.probability = p;
  e.delay = delay;
  return e;
}

/// Send `n` frames through `link` at 1 us spacing starting at base+1us.
void send_frames(sim::EventQueue& queue, net::Link& link,
                 pktio::Mempool& pool, int n, Ns base = 0) {
  for (int i = 0; i < n; ++i) {
    const Ns at = base + microseconds(1) * (i + 1);
    queue.schedule_at(at, [&link, &pool, at] {
      pktio::Mbuf* m = pool.alloc();
      ASSERT_NE(m, nullptr);
      m->frame.wire_len = 100;
      link.send(m, at);
    });
  }
}

TEST(FaultInjection, LinkDownWindowDropsEverythingInside) {
  sim::EventQueue queue;
  net::Link link(queue);
  CountingSink sink;
  link.connect(sink);
  pktio::Mempool pool(256);

  // Down for frames 10..19 (window [10us, 20us)).
  FaultPlan plan;
  plan.add(window_event(FaultKind::kLinkDown, microseconds(10),
                        microseconds(10)));
  FaultInjector injector(queue, plan, Rng(7));
  injector.attach_link("link.test", link);
  EXPECT_EQ(injector.attached_points(), 1u);

  send_frames(queue, link, pool, 100);
  queue.run();

  EXPECT_EQ(injector.stats().link_down_drops, 10u);
  EXPECT_EQ(sink.delivered, 90u);
  EXPECT_EQ(pool.available(), pool.capacity());  // dropped frames released
}

TEST(FaultInjection, LinkDropIsProbabilisticAndCounted) {
  sim::EventQueue queue;
  net::Link link(queue);
  CountingSink sink;
  link.connect(sink);
  pktio::Mempool pool(2048);

  FaultPlan plan;
  plan.add(window_event(FaultKind::kLinkDrop, 0, seconds(1), 0.3));
  FaultInjector injector(queue, plan, Rng(7));
  injector.attach_link("link.test", link);

  send_frames(queue, link, pool, 1000);
  queue.run();

  const std::uint64_t dropped = injector.stats().frames_dropped;
  EXPECT_EQ(sink.delivered + dropped, 1000u);
  EXPECT_GT(dropped, 200u);  // p = 0.3 over 1000 frames
  EXPECT_LT(dropped, 400u);
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(FaultInjection, CorruptSetsFcsDuplicateClonesReorderDelays) {
  sim::EventQueue queue;
  net::Link link(queue);
  CountingSink sink;
  link.connect(sink);
  pktio::Mempool pool(2048);

  FaultPlan plan;
  plan.add(window_event(FaultKind::kLinkCorrupt, 0, milliseconds(1), 1.0));
  // Duplicate delay deliberately off the 1 us send grid so clones land
  // strictly between original arrivals, never tied with one.
  plan.add(window_event(FaultKind::kLinkDuplicate, milliseconds(1),
                        milliseconds(1), 1.0, Ns{2500}));
  plan.add(window_event(FaultKind::kLinkReorder, milliseconds(2),
                        milliseconds(1), 1.0, microseconds(500)));
  FaultInjector injector(queue, plan, Rng(9));
  injector.attach_link("link.test", link);

  // 100 frames in [1us, 100us): all corrupted.
  // 100 frames in [1ms, 1ms+100us): all duplicated.
  // 100 frames in [2ms, 2ms+100us): all held back 500us.
  for (int i = 0; i < 100; ++i) {
    for (const Ns base : {Ns{0}, milliseconds(1), milliseconds(2)}) {
      const Ns at = base + microseconds(1) * (i + 1);
      const auto id = static_cast<std::uint32_t>(100 + i);
      queue.schedule_at(at, [&link, &pool, at, id] {
        pktio::Mbuf* m = pool.alloc();
        ASSERT_NE(m, nullptr);
        m->frame.wire_len = id;
        link.send(m, at);
      });
    }
  }
  queue.run();

  EXPECT_EQ(injector.stats().frames_corrupted, 100u);
  EXPECT_EQ(injector.stats().frames_duplicated, 100u);
  EXPECT_EQ(injector.stats().frames_reordered, 100u);
  EXPECT_EQ(sink.bad_fcs, 100u);
  EXPECT_EQ(sink.delivered, 400u);  // 300 originals + 100 clones
  EXPECT_EQ(pool.available(), pool.capacity());

  // The event queue delivers in time order, so arrival *times* are
  // non-decreasing by construction; the duplicate interleaving shows up
  // as inversions in frame *identity* (clone of frame i arrives between
  // later originals).
  bool ids_monotone = true;
  for (std::size_t i = 1; i < sink.ids.size(); ++i) {
    if (sink.ids[i] < sink.ids[i - 1]) ids_monotone = false;
  }
  EXPECT_FALSE(ids_monotone);

  // Reordered frames really were held back: the final arrival is at
  // least the reorder delay past the last send time.
  ASSERT_FALSE(sink.times.empty());
  EXPECT_GE(*std::max_element(sink.times.begin(), sink.times.end()),
            milliseconds(2) + microseconds(100) + microseconds(500));
}

/// Backend double: accepts everything, produces nothing.
struct NullBackend : pktio::PortBackend {
  std::uint64_t taken = 0;
  std::uint16_t backend_tx(pktio::Mbuf* const* pkts,
                           std::uint16_t n) override {
    for (std::uint16_t i = 0; i < n; ++i) pktio::Mempool::release(pkts[i]);
    taken += n;
    return n;
  }
  std::uint16_t backend_rx(pktio::Mbuf**, std::uint16_t) override {
    return 0;
  }
};

TEST(FaultInjection, NicStallAndTruncationClampBursts) {
  sim::EventQueue queue;
  NullBackend backend;
  pktio::EthDev dev("test", backend);
  pktio::Mempool pool(256);

  FaultPlan plan;
  plan.add(window_event(FaultKind::kNicTxStall, 0, microseconds(10)));
  FaultEvent trunc = window_event(FaultKind::kNicBurstTruncate,
                                  microseconds(10), microseconds(10));
  trunc.burst_cap = 3;
  plan.add(trunc);
  FaultInjector injector(queue, plan, Rng(11));
  injector.attach_port("nic.test", dev);

  auto burst_of = [&pool](pktio::Mbuf** pkts, std::uint16_t n) {
    for (std::uint16_t i = 0; i < n; ++i) {
      pkts[i] = pool.alloc();
      ASSERT_NE(pkts[i], nullptr);
    }
  };

  // Inside the stall window: total rejection, nothing reaches the device.
  pktio::Mbuf* pkts[8];
  burst_of(pkts, 8);
  EXPECT_EQ(dev.tx_burst(pkts, 8), 0);
  EXPECT_EQ(backend.taken, 0u);
  EXPECT_EQ(injector.stats().tx_stalled_bursts, 1u);
  for (auto* p : pkts) pktio::Mempool::release(p);

  // Inside the truncation window: clamped to burst_cap.
  queue.schedule_at(microseconds(12), [&] {
    pktio::Mbuf* again[8];
    burst_of(again, 8);
    EXPECT_EQ(dev.tx_burst(again, 8), 3);
    for (int i = 3; i < 8; ++i) pktio::Mempool::release(again[i]);
  });
  queue.run();
  EXPECT_EQ(backend.taken, 3u);
  EXPECT_EQ(injector.stats().bursts_truncated, 1u);
  EXPECT_EQ(dev.stats().tx_rejected, 8u + 5u);
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(FaultInjection, MemPressureDeniesDuringWindowPoolFullyRecovers) {
  // S3: drive the pool empty mid-burst via forced pressure, check the
  // drop counters advance, then verify complete recovery — every buffer
  // back in the pool, no leaked references.
  sim::EventQueue queue;
  pktio::Mempool pool(32);

  FaultPlan plan;
  plan.add(window_event(FaultKind::kMemPressure, microseconds(5),
                        microseconds(10)));
  FaultInjector injector(queue, plan, Rng(13));
  injector.attach_pool("pool.test", pool);

  std::vector<pktio::Mbuf*> held;
  // Before the window: allocations succeed.
  queue.schedule_at(microseconds(1), [&] {
    for (int i = 0; i < 8; ++i) {
      pktio::Mbuf* m = pool.alloc();
      ASSERT_NE(m, nullptr);
      held.push_back(m);
    }
  });
  // Mid-burst, inside the window: every allocation is denied even though
  // 24 buffers are free.
  queue.schedule_at(microseconds(8), [&] {
    EXPECT_GT(pool.available(), 0u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(pool.alloc(), nullptr);
  });
  // After the window: allocation works again immediately.
  queue.schedule_at(microseconds(20), [&] {
    pktio::Mbuf* m = pool.alloc();
    ASSERT_NE(m, nullptr);
    held.push_back(m);
  });
  queue.run();

  EXPECT_EQ(injector.stats().allocs_denied, 8u);
  EXPECT_EQ(pool.denied_allocs(), 8u);
  EXPECT_EQ(pool.alloc_failures(), 8u);
  EXPECT_EQ(held.size(), 9u);
  EXPECT_EQ(pool.in_use(), 9u);

  for (auto* m : held) pktio::Mempool::release(m);
  EXPECT_EQ(pool.available(), pool.capacity());  // full recovery
  // And the pool allocates its whole capacity again.
  std::vector<pktio::Mbuf*> all;
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    pktio::Mbuf* m = pool.alloc();
    ASSERT_NE(m, nullptr);
    all.push_back(m);
  }
  EXPECT_EQ(pool.alloc(), nullptr);  // genuinely empty now
  for (auto* m : all) pktio::Mempool::release(m);
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(FaultInjection, DetachRestoresCleanBehaviour) {
  sim::EventQueue queue;
  net::Link link(queue);
  CountingSink sink;
  link.connect(sink);
  pktio::Mempool pool(64);

  FaultPlan plan;
  plan.add(window_event(FaultKind::kLinkDown, 0, seconds(1)));
  auto injector = std::make_unique<FaultInjector>(queue, plan, Rng(3));
  injector->attach_link("link.test", link);

  send_frames(queue, link, pool, 5);
  queue.run();
  EXPECT_EQ(sink.delivered, 0u);

  injector->detach_all();
  send_frames(queue, link, pool, 5, queue.now());
  queue.run();
  EXPECT_EQ(sink.delivered, 5u);
}

TEST(FaultInjection, EventsOutsideTheirLayerNeverBind) {
  sim::EventQueue queue;
  net::Link link(queue);
  pktio::Mempool pool(16);
  NullBackend backend;
  pktio::EthDev dev("test", backend);

  FaultPlan plan;
  plan.add(window_event(FaultKind::kMemPressure, 0, seconds(1)));
  FaultInjector injector(queue, plan, Rng(5));
  injector.attach_link("link.test", link);  // no link events -> no hook
  injector.attach_port("nic.test", dev);    // no nic events -> no hook
  EXPECT_EQ(injector.attached_points(), 0u);
  injector.attach_pool("pool.test", pool);
  EXPECT_EQ(injector.attached_points(), 1u);
}

// ---- Interval index vs. the linear scan it replaced ---------------------

/// Seeded random plan of overlapping windows (some zero-length) of every
/// NIC kind plus a few other-layer events, aimed at "nic.test", at every
/// point ("*"), or at another port.
FaultPlan random_overlapping_plan(Rng& rng, std::size_t events, Ns horizon) {
  const FaultKind kinds[] = {FaultKind::kNicRxStall, FaultKind::kNicTxStall,
                             FaultKind::kNicBurstTruncate,
                             FaultKind::kNicBurstTruncate,
                             FaultKind::kLinkDrop, FaultKind::kMemPressure};
  const char* targets[] = {"nic.test", "*", "nic.other"};
  FaultPlan plan;
  for (std::size_t i = 0; i < events; ++i) {
    FaultEvent e;
    e.kind = kinds[rng.uniform_u64(std::size(kinds))];
    e.target = targets[rng.uniform_u64(std::size(targets))];
    e.start = static_cast<Ns>(rng.uniform_u64(static_cast<std::uint64_t>(horizon)));
    e.duration = rng.chance(0.05)
                     ? 0
                     : static_cast<Ns>(rng.uniform_u64(
                           static_cast<std::uint64_t>(horizon / 6)));
    e.burst_cap = static_cast<std::uint16_t>(1 + rng.uniform_u64(24));
    plan.add(e);
  }
  return plan;
}

TEST(FaultInjection, ActiveWindowsMatchLinearScan) {
  // Random overlapping windows, queried mostly forward in time with
  // repeats and occasional jumps back: the sweep's active list must be
  // exactly the active_at scan, in plan order, for the kept events.
  Rng rng(0xAC71);
  for (int round = 0; round < 20; ++round) {
    const Ns horizon = 1'000'000;
    const FaultPlan plan = random_overlapping_plan(rng, 1 + rng.uniform_u64(300),
                                                   horizon);
    std::vector<const FaultEvent*> events;
    for (const FaultEvent& e : plan.events()) events.push_back(&e);
    const auto keep = [round](const FaultEvent& e) {
      return round % 2 == 0 || e.kind == FaultKind::kNicBurstTruncate;
    };
    ActiveWindows windows(events, keep);
    Ns now = 0;
    for (int q = 0; q < 3000; ++q) {
      const std::uint64_t step = rng.uniform_u64(100);
      if (step < 3) {
        now = static_cast<Ns>(rng.uniform_u64(static_cast<std::uint64_t>(now) + 1));
      } else if (step > 10) {
        now += static_cast<Ns>(rng.uniform_u64(1500));
      }
      // else: the same time again
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < events.size(); ++i) {
        if (keep(*events[i]) && events[i]->active_at(now)) want.push_back(i);
      }
      std::vector<std::uint32_t> got;
      for (const ActiveWindows::Window& w : windows.at(now)) {
        got.push_back(w.index);
      }
      ASSERT_EQ(got, want) << "round " << round << " query " << q;
    }
  }
}

/// Backend that records how many packets each burst offered it.
struct RecordingBackend : pktio::PortBackend {
  std::uint16_t offered = 0;
  std::uint16_t backend_tx(pktio::Mbuf* const* pkts,
                           std::uint16_t n) override {
    for (std::uint16_t i = 0; i < n; ++i) pktio::Mempool::release(pkts[i]);
    offered = n;
    return n;
  }
  std::uint16_t backend_rx(pktio::Mbuf**, std::uint16_t n) override {
    offered = n;
    return 0;
  }
};

/// The port hook's semantics as a literal scan of the point's events in
/// plan order: the first active stall of the burst's direction rejects
/// it; otherwise the first event holding the smallest active burst_cap
/// below the request clamps it. Each (event, first hit) is latched once.
struct LinearPortModel {
  std::vector<const FaultEvent*> events;
  std::vector<bool> notified;
  FaultStats stats;
  std::vector<std::tuple<std::string, FaultKind, Ns>> activations;

  LinearPortModel(const FaultPlan& plan, const std::string& name) {
    for (const FaultEvent& e : plan.events()) {
      if (layer_of(e.kind) == FaultLayer::kNic && e.matches(name)) {
        events.push_back(&e);
      }
    }
    notified.assign(events.size(), false);
  }

  void notify(std::size_t i, Ns now) {
    if (notified[i]) return;
    notified[i] = true;
    activations.emplace_back("nic.test", events[i]->kind, now);
  }

  std::uint16_t clamp(std::uint16_t n, bool rx, Ns now) {
    std::uint16_t allowed = n;
    std::size_t truncated_by = SIZE_MAX;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent* e = events[i];
      if (!e->active_at(now)) continue;
      if (e->kind == (rx ? FaultKind::kNicRxStall : FaultKind::kNicTxStall)) {
        ++(rx ? stats.rx_stalled_polls : stats.tx_stalled_bursts);
        notify(i, now);
        return 0;
      }
      if (e->kind == FaultKind::kNicBurstTruncate && e->burst_cap < allowed) {
        allowed = e->burst_cap;
        truncated_by = i;
      }
    }
    if (allowed < n) {
      ++stats.bursts_truncated;
      notify(truncated_by, now);
    }
    return allowed;
  }
};

TEST(FaultInjection, PortClampMatchesLinearScanOnRandomPlans) {
  // Seeded random plans of overlapping stall and truncation windows,
  // driven by RX polls and TX bursts of random size at random times: the
  // indexed port hook must return, count and report exactly what the
  // linear scan does.
  Rng rng(0x5CA7);
  for (int round = 0; round < 12; ++round) {
    const Ns horizon = 2'000'000;
    const FaultPlan plan =
        random_overlapping_plan(rng, 1 + rng.uniform_u64(400), horizon);
    sim::EventQueue queue;
    RecordingBackend backend;
    pktio::EthDev dev("test", backend);
    pktio::Mempool pool(64);
    FaultInjector injector(queue, plan, Rng(round));
    std::vector<std::tuple<std::string, FaultKind, Ns>> activations;
    injector.set_observer([&](const std::string& point, FaultKind kind,
                              Ns now) {
      activations.emplace_back(point, kind, now);
    });
    injector.attach_port("nic.test", dev);
    LinearPortModel model(plan, "nic.test");

    Ns at = 0;
    for (int burst = 0; burst < 2000; ++burst) {
      at += static_cast<Ns>(rng.uniform_u64(2 * horizon / 2000));
      const bool rx = rng.chance(0.4);
      const auto n = static_cast<std::uint16_t>(1 + rng.uniform_u64(32));
      queue.schedule_at(at, [&, rx, n] {
        const std::uint16_t want = model.clamp(n, rx, queue.now());
        backend.offered = 0;
        if (rx) {
          pktio::Mbuf* pkts[32];
          dev.rx_burst(pkts, n);
        } else {
          pktio::Mbuf* pkts[32];
          for (std::uint16_t i = 0; i < n; ++i) pkts[i] = pool.alloc();
          const std::uint16_t sent = dev.tx_burst(pkts, n);
          for (std::uint16_t i = sent; i < n; ++i) {
            pktio::Mempool::release(pkts[i]);
          }
        }
        EXPECT_EQ(backend.offered, want) << "burst at " << queue.now();
      });
    }
    queue.run();
    EXPECT_EQ(injector.stats().rx_stalled_polls, model.stats.rx_stalled_polls);
    EXPECT_EQ(injector.stats().tx_stalled_bursts,
              model.stats.tx_stalled_bursts);
    EXPECT_EQ(injector.stats().bursts_truncated, model.stats.bursts_truncated);
    EXPECT_EQ(activations, model.activations) << "round " << round;
    EXPECT_EQ(pool.available(), pool.capacity());
  }
}

}  // namespace
}  // namespace choir::fault
