#include "src/sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/log.hpp"

namespace osmosis::sim {

// ---- MeanVar ---------------------------------------------------------------

void MeanVar::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double MeanVar::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double MeanVar::stddev() const { return std::sqrt(variance()); }

void MeanVar::merge(const MeanVar& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(double linear_limit, double growth)
    : linear_limit_(linear_limit), growth_(growth) {
  OSMOSIS_REQUIRE(linear_limit_ >= 1.0, "linear_limit must be >= 1");
  OSMOSIS_REQUIRE(growth_ > 1.0, "growth must be > 1");
}

std::size_t Histogram::bin_for(double x) const {
  if (x < linear_limit_)
    return static_cast<std::size_t>(std::max(0.0, x));
  // Geometric region: bin index grows with log(x / linear_limit).
  const std::size_t lin_bins = static_cast<std::size_t>(linear_limit_);
  const double g = std::log(x / linear_limit_) / std::log(growth_);
  return lin_bins + static_cast<std::size_t>(g);
}

std::pair<double, double> Histogram::bin_bounds(std::size_t b) const {
  const std::size_t lin_bins = static_cast<std::size_t>(linear_limit_);
  if (b < lin_bins)
    return {static_cast<double>(b), static_cast<double>(b + 1)};
  const double lo =
      linear_limit_ * std::pow(growth_, static_cast<double>(b - lin_bins));
  return {lo, lo * growth_};
}

void Histogram::add(double x) {
  OSMOSIS_REQUIRE(x >= 0.0 && std::isfinite(x),
                  "histogram sample must be finite and >= 0, got " << x);
  const std::size_t b = bin_for(x);
  if (b >= bins_.size()) bins_.resize(b + 1, 0);
  ++bins_[b];
  ++total_;
  mv_.add(x);
}

void Histogram::merge(const Histogram& other) {
  OSMOSIS_REQUIRE(linear_limit_ == other.linear_limit_ &&
                      growth_ == other.growth_,
                  "histogram merge requires identical bin shape: ("
                      << linear_limit_ << ", " << growth_ << ") vs ("
                      << other.linear_limit_ << ", " << other.growth_ << ")");
  if (other.bins_.size() > bins_.size()) bins_.resize(other.bins_.size(), 0);
  for (std::size_t b = 0; b < other.bins_.size(); ++b)
    bins_[b] += other.bins_[b];
  total_ += other.total_;
  mv_.merge(other.mv_);
}

double Histogram::quantile(double q) const {
  OSMOSIS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]: " << q);
  if (total_ == 0) return 0.0;
  // The distribution's exact extremes are tracked out-of-band; bin
  // interpolation would return the (coarser) bin edges instead.
  if (q == 0.0) return mv_.min();
  if (q == 1.0) return mv_.max();
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    const double next = cum + static_cast<double>(bins_[b]);
    if (next >= target && bins_[b] > 0) {
      const auto [lo, hi] = bin_bounds(b);
      const double frac =
          (target - cum) / static_cast<double>(bins_[b]);  // within-bin pos
      // Interpolation works on bin bounds, which in the geometric region
      // can stretch past the actual extremes; never report a quantile
      // outside the observed range.
      return std::clamp(lo + frac * (hi - lo), mv_.min(), mv_.max());
    }
    cum = next;
  }
  return mv_.max();
}

}  // namespace osmosis::sim
