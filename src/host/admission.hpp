#pragma once
// Degraded-mode admission control at the HCA (graceful degradation,
// DESIGN.md §13).
//
// When the management plane (mgmt::HealthRegistry, surfaced to the
// simulator as the count of in-service spines) reports terminal capacity
// below offered demand, the fabric cannot stay lossless AND keep backlog
// bounded — something has to give. This module gives deliberately: each
// source gets an identical token bucket whose refill rate tracks the
// surviving-capacity fraction, and cells that find an empty bucket are
// shed AT THE SOURCE, before they consume a sequence number or enter any
// ledger as offered work. Identical buckets are the fairness guarantee:
// no source can crowd out another during a brownout.
//
// All arithmetic is integer (micro-cells per slot) so runs stay
// byte-identical at any thread count. Fully checkpointed via io_state.

#include <cstdint>
#include <vector>

#include "src/ckpt/archive.hpp"

namespace osmosis::host {

struct AdmissionConfig {
  bool enabled = false;
  // Admit up to margin_pct % of the surviving-capacity fair share.
  // Slightly below 100 leaves scheduler headroom so queues drain.
  int margin_pct = 95;
  // Bucket depth in cells: tolerated burstiness per source.
  int burst_cells = 8;
};

class AdmissionControl {
 public:
  AdmissionControl() = default;
  AdmissionControl(AdmissionConfig cfg, int sources);

  bool enabled() const { return cfg_.enabled; }

  /// Health update: `live` of `total` parallel paths are in service.
  /// Full capacity disengages shedding entirely (buckets refill to
  /// burst depth and admit() short-circuits true).
  void set_capacity(int live, int total);

  /// Serving-layer explicit-rate mode (DESIGN.md §14): every source
  /// refills at this fixed micro-cell rate per slot, independent of
  /// reported path health, and the buckets stay engaged even at full
  /// capacity — an open-loop client population can offer more than line
  /// rate to a perfectly healthy fabric, and the excess must still be
  /// shed at the source. 0 (default) keeps the degraded-capacity refill
  /// formula. kCellCost micro-cells == one cell per slot.
  void set_rate(std::int64_t microcells_per_slot);
  std::int64_t rate() const { return rate_; }

  /// Per-slot token refill. Call once per slot before admit() rolls.
  void begin_slot();

  /// One arriving cell at `src`: true = admit, false = shed.
  bool admit(int src);

  /// All-or-nothing admission of a whole `cells`-cell request at `src`
  /// (the serving layer's unit of work: a message is either accepted in
  /// full or shed in full, never truncated mid-segmentation). Sheds are
  /// counted per request, matching the per-cell admit() convention of
  /// one shed event per rejected unit.
  bool admit_request(int src, int cells);

  std::uint64_t shed_total() const { return shed_total_; }
  /// Fairness telemetry: widest per-source shed spread seen so far.
  std::uint64_t shed_max() const;
  std::uint64_t shed_min() const;

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, live_);
    ckpt::field(a, total_);
    ckpt::field(a, rate_);
    ckpt::field(a, tokens_);
    ckpt::field(a, shed_);
    ckpt::field(a, shed_total_);
    if constexpr (Ar::kLoading) {
      if (tokens_.size() != shed_.size())
        throw ckpt::Error("AdmissionControl size inconsistent in checkpoint");
    }
  }

  static constexpr std::int64_t kCellCost = 1'000'000;

 private:
  bool engaged() const {
    return cfg_.enabled && (rate_ > 0 || live_ < total_);
  }

  AdmissionConfig cfg_;
  int live_ = 0;
  int total_ = 0;
  std::int64_t rate_ = 0;  // explicit refill (micro-cells/slot); 0 = health
  std::vector<std::int64_t> tokens_;  // micro-cells, per source
  std::vector<std::uint64_t> shed_;   // per source
  std::uint64_t shed_total_ = 0;
};

}  // namespace osmosis::host
