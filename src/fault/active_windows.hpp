// Which of an injection point's fault windows are active at a time.
//
// A point answers that on every frame, burst or allocation, and a chaos
// plan binds thousands of short periodic windows to one point
// (chaos_nic_plan: an RX stall every 7 ms and a TX stall every 11 ms
// over a 30 s horizon), so a scan of every window per call dominated a
// chaos run. Queries arrive in non-decreasing simulated time, so a sweep
// answers them instead: windows sorted by start, a cursor past every
// window already started, and the short list of started windows not yet
// over. Each window enters and leaves the list once, and a query costs
// the list's length.
//
// The answer equals a scan of FaultEvent::active_at over the windows in
// plan order: the active list is kept in that order. A query earlier
// than the last one restarts the sweep, so out-of-order queries stay
// correct, only slower.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "fault/fault_plan.hpp"

namespace choir::fault {

class ActiveWindows {
 public:
  struct Window {
    Ns start = 0;
    Ns end = 0;                ///< exclusive, FaultEvent::end()
    std::uint32_t index = 0;   ///< position in the point's event list
  };

  ActiveWindows() = default;

  /// Index the events of `events` (a point's list, plan order) that
  /// `keep` accepts.
  template <typename Keep>
  ActiveWindows(const std::vector<const FaultEvent*>& events, Keep keep) {
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      if (keep(*events[i])) {
        by_start_.push_back(Window{events[i]->start, events[i]->end(), i});
      }
    }
    std::stable_sort(by_start_.begin(), by_start_.end(),
                     [](const Window& x, const Window& y) {
                       return x.start < y.start;
                     });
  }

  /// The indexed windows active at `now` (start <= now < end), in
  /// ascending index order. Valid until the next call.
  std::span<const Window> at(Ns now) {
    if (now < now_) {
      next_ = 0;
      active_.clear();
    }
    now_ = now;
    std::erase_if(active_, [now](const Window& w) { return w.end <= now; });
    while (next_ < by_start_.size() && by_start_[next_].start <= now) {
      const Window& w = by_start_[next_++];
      if (w.end <= now) continue;
      active_.insert(std::upper_bound(active_.begin(), active_.end(), w,
                                      [](const Window& x, const Window& y) {
                                        return x.index < y.index;
                                      }),
                     w);
    }
    return active_;
  }

 private:
  std::vector<Window> by_start_;
  std::size_t next_ = 0;
  std::vector<Window> active_;
  Ns now_ = std::numeric_limits<Ns>::min();
};

}  // namespace choir::fault
