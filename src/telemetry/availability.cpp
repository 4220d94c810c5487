#include "src/telemetry/availability.hpp"

#include <algorithm>

#include "src/util/log.hpp"

namespace osmosis::telemetry {

namespace {

// Throughput-floor window; also the brownout-detection granularity.
constexpr std::uint64_t kWindowSlots = 512;

}  // namespace

AvailabilityTracker::AvailabilityTracker(int total_paths)
    : total_paths_(total_paths), min_live_(total_paths) {
  OSMOSIS_REQUIRE(total_paths_ >= 1, "availability needs >= 1 path");
}

void AvailabilityTracker::record_slot(std::uint64_t delivered, int live_paths,
                                      int hosts) {
  if (!enabled()) return;
  hosts_ = hosts;
  const bool degraded = live_paths < total_paths_;
  min_live_ = std::min(min_live_, live_paths);
  ++measured_slots_;
  if (degraded) {
    ++degraded_slots_;
    saw_degraded_ = true;
    deg_slots_ += 1;
    deg_delivered_ += delivered;
  } else if (!saw_degraded_) {
    pre_slots_ += 1;
    pre_delivered_ += delivered;
  } else {
    post_slots_ += 1;
    post_delivered_ += delivered;
  }
  win_slots_ += 1;
  win_delivered_ += delivered;
  win_degraded_ = win_degraded_ || degraded;
  if (win_slots_ == kWindowSlots) close_window();
}

void AvailabilityTracker::close_window() {
  min_win_delivered_ = std::min(min_win_delivered_, win_delivered_);
  if (win_degraded_)
    min_win_delivered_degraded_ =
        std::min(min_win_delivered_degraded_, win_delivered_);
  win_slots_ = 0;
  win_delivered_ = 0;
  win_degraded_ = false;
}

void AvailabilityTracker::to_report(RunReport& r, std::uint64_t offered,
                                    std::uint64_t delivered,
                                    std::uint64_t shed,
                                    const sim::Histogram* mttr) const {
  if (!enabled() || measured_slots_ == 0) return;
  auto& av = r.availability;
  const auto thr = [this](std::uint64_t cells, std::uint64_t slots) {
    if (slots == 0 || hosts_ == 0) return 0.0;
    return static_cast<double>(cells) /
           (static_cast<double>(slots) * static_cast<double>(hosts_));
  };
  av["measured_slots"] = static_cast<double>(measured_slots_);
  av["brownout_slots"] = static_cast<double>(degraded_slots_);
  av["brownout_fraction"] =
      static_cast<double>(degraded_slots_) /
      static_cast<double>(measured_slots_);
  av["capacity_fraction_min"] =
      static_cast<double>(min_live_) / static_cast<double>(total_paths_);
  av["throughput_pre"] = thr(pre_delivered_, pre_slots_);
  av["throughput_degraded"] = thr(deg_delivered_, deg_slots_);
  av["throughput_post"] = thr(post_delivered_, post_slots_);
  av["min_window_throughput"] =
      min_win_delivered_ == ~0ULL ? 0.0
                                  : thr(min_win_delivered_, kWindowSlots);
  av["min_window_throughput_degraded"] =
      min_win_delivered_degraded_ == ~0ULL
          ? 0.0
          : thr(min_win_delivered_degraded_, kWindowSlots);
  const std::uint64_t generated = offered + shed;
  av["offered_cells"] = static_cast<double>(offered);
  av["delivered_cells"] = static_cast<double>(delivered);
  av["shed_cells"] = static_cast<double>(shed);
  av["shed_fraction"] = generated == 0
                            ? 0.0
                            : static_cast<double>(shed) /
                                  static_cast<double>(generated);
  av["delivered_fraction"] = generated == 0
                                 ? 1.0
                                 : static_cast<double>(delivered) /
                                       static_cast<double>(generated);
  if (mttr != nullptr) {
    av["recoveries"] = static_cast<double>(mttr->count());
    if (mttr->count() > 0) {
      av["mttr_mean_slots"] = mttr->mean();
      av["mttr_max_slots"] = mttr->max();
      r.histograms.emplace("mttr", HistogramSummary::of(*mttr));
    }
  }
}

}  // namespace osmosis::telemetry
