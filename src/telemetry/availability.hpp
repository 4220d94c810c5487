#pragma once
// Availability / SLO accounting for graceful degradation (DESIGN.md
// §13). Fed once per measured slot by the owning simulator, it splits
// the measurement interval into service phases — nominal-pre (before
// the first capacity loss), degraded (any path out of service), and
// nominal-post — and tracks per-phase delivered throughput, the
// windowed throughput floor (the worst complete 512-slot window,
// overall and among brownout windows), the worst surviving-capacity
// fraction, and shed-cell accounting. Everything is integer or
// end-of-run ratio arithmetic, so reports stay byte-identical at any
// thread count; all state checkpoints via io_state.

#include <cstdint>

#include "src/ckpt/archive.hpp"
#include "src/sim/stats.hpp"
#include "src/telemetry/run_report.hpp"

namespace osmosis::telemetry {

class AvailabilityTracker {
 public:
  /// Disabled: record_slot and to_report are no-ops.
  AvailabilityTracker() = default;
  /// Enabled, over `total_paths` parallel paths.
  explicit AvailabilityTracker(int total_paths);

  bool enabled() const { return total_paths_ > 0; }

  /// One measured slot: `delivered` cells reached their destination,
  /// `live_paths` of the configured total were in service, `hosts`
  /// terminals define line rate (constant across a run).
  void record_slot(std::uint64_t delivered, int live_paths, int hosts);

  /// Fills RunReport::availability (and histograms["mttr"] when the
  /// recovery histogram is non-empty) from the window state plus the
  /// caller's end-of-run totals (offered = admitted into the fabric,
  /// shed = refused at the source by admission control). No-op when
  /// disabled or no slot was ever recorded, preserving byte-identical
  /// legacy reports.
  void to_report(RunReport& r, std::uint64_t offered,
                 std::uint64_t delivered, std::uint64_t shed,
                 const sim::Histogram* mttr) const;

  std::uint64_t degraded_slots() const { return degraded_slots_; }

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, measured_slots_);
    ckpt::field(a, degraded_slots_);
    ckpt::field(a, saw_degraded_);
    ckpt::field(a, min_live_);
    ckpt::field(a, hosts_);
    ckpt::field(a, pre_slots_);
    ckpt::field(a, pre_delivered_);
    ckpt::field(a, deg_slots_);
    ckpt::field(a, deg_delivered_);
    ckpt::field(a, post_slots_);
    ckpt::field(a, post_delivered_);
    ckpt::field(a, win_slots_);
    ckpt::field(a, win_delivered_);
    ckpt::field(a, win_degraded_);
    ckpt::field(a, min_win_delivered_);
    ckpt::field(a, min_win_delivered_degraded_);
  }

 private:
  void close_window();

  int total_paths_ = 0;  // 0 = disabled

  std::uint64_t measured_slots_ = 0;
  std::uint64_t degraded_slots_ = 0;  // brownout duration in slots
  bool saw_degraded_ = false;
  int min_live_ = 0;
  int hosts_ = 0;

  // Phase accumulators.
  std::uint64_t pre_slots_ = 0, pre_delivered_ = 0;
  std::uint64_t deg_slots_ = 0, deg_delivered_ = 0;
  std::uint64_t post_slots_ = 0, post_delivered_ = 0;

  // Current window + floors (cells per complete window; ~0 = none seen).
  std::uint64_t win_slots_ = 0, win_delivered_ = 0;
  bool win_degraded_ = false;
  std::uint64_t min_win_delivered_ = ~0ULL;
  std::uint64_t min_win_delivered_degraded_ = ~0ULL;
};

}  // namespace osmosis::telemetry
