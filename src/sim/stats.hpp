#pragma once
// Statistics collection for the simulation experiments: running
// mean/variance, latency histograms with percentiles and throughput
// counters. Per-flow delivery order is audited by sim::FlowLedger
// (src/sim/flow_ledger.hpp).

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/ckpt/archive.hpp"

namespace osmosis::sim {

/// Welford running mean / variance / min / max accumulator.
class MeanVar {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  void merge(const MeanVar& other);

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, n_);
    ckpt::field(a, mean_);
    ckpt::field(a, m2_);
    ckpt::field(a, min_);
    ckpt::field(a, max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram over non-negative values with hybrid linear/geometric bins:
/// exact unit bins up to `linear_limit`, then geometrically growing bins.
/// Suited to latency distributions whose tail spans orders of magnitude.
class Histogram {
 public:
  explicit Histogram(double linear_limit = 64.0, double growth = 1.25);

  void add(double x);

  std::uint64_t count() const { return total_; }
  double mean() const { return mv_.mean(); }
  double min() const { return mv_.min(); }
  double max() const { return mv_.max(); }

  /// Quantile via bin interpolation; q in [0, 1]. Returns 0 when empty.
  /// q = 0 and q = 1 return the exact observed min/max rather than
  /// bin-interpolated bounds.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }
  double p9999() const { return quantile(0.9999); }

  /// Accumulates another histogram of the *same bin shape* (equal
  /// linear_limit and growth; enforced). Bins add element-wise and the
  /// out-of-band extremes/mean merge exactly, so sharded collection
  /// followed by merge() reports the same count/mean/min/max/quantiles
  /// as one histogram fed every sample — the campaign runner's
  /// aggregation invariant.
  void merge(const Histogram& other);

  double linear_limit() const { return linear_limit_; }
  double growth() const { return growth_; }

  /// Bin shape (linear_limit, growth) is construction-time config and is
  /// re-checked on load rather than overwritten, so a snapshot can never
  /// graft bins onto a histogram of a different shape.
  template <class Ar>
  void io_state(Ar& a) {
    double limit = linear_limit_;
    double growth = growth_;
    ckpt::field(a, limit);
    ckpt::field(a, growth);
    if constexpr (Ar::kLoading) {
      if (limit != linear_limit_ || growth != growth_)
        throw ckpt::Error("histogram bin shape mismatch in checkpoint");
    }
    ckpt::field(a, bins_);
    ckpt::field(a, total_);
    ckpt::field(a, mv_);
  }

 private:
  std::size_t bin_for(double x) const;
  std::pair<double, double> bin_bounds(std::size_t b) const;

  double linear_limit_;
  double growth_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
  MeanVar mv_;
};

/// Counts delivered payload over elapsed slots to yield normalized
/// throughput (fraction of line rate actually used).
class ThroughputMeter {
 public:
  void add_delivery(double payload_units = 1.0) { delivered_ += payload_units; }
  void advance_slots(std::uint64_t slots, std::uint64_t lines) {
    capacity_ += static_cast<double>(slots) * static_cast<double>(lines);
  }
  double delivered() const { return delivered_; }
  /// Delivered / offered-capacity; 0 when no capacity elapsed.
  double utilization() const {
    return capacity_ > 0.0 ? delivered_ / capacity_ : 0.0;
  }

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, delivered_);
    ckpt::field(a, capacity_);
  }

 private:
  double delivered_ = 0.0;
  double capacity_ = 0.0;
};

}  // namespace osmosis::sim
