// Tests for the RNG and the statistics accumulators.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/sim/flow_ledger.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/stats.hpp"

namespace osmosis::sim {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  MeanVar mv;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mv.add(u);
  }
  EXPECT_NEAR(mv.mean(), 0.5, 0.01);
  EXPECT_NEAR(mv.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntUnbiased) {
  Rng rng(9);
  std::vector<int> counts(7, 0);
  const int trials = 140'000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_int(7)];
  for (int c : counts) EXPECT_NEAR(c, trials / 7.0, trials * 0.01);
}

TEST(Rng, GeometricMean) {
  Rng rng(11);
  const double p = 0.2;
  MeanVar mv;
  for (int i = 0; i < 100'000; ++i)
    mv.add(static_cast<double>(rng.geometric(p)));
  EXPECT_NEAR(mv.mean(), (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricPOneIsZero) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  MeanVar mv;
  for (int i = 0; i < 100'000; ++i) mv.add(rng.exponential(3.0));
  EXPECT_NEAR(mv.mean(), 3.0, 0.1);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(17);
  for (int n : {1, 2, 8, 64}) {
    auto p = rng.permutation(n);
    ASSERT_EQ(static_cast<int>(p.size()), n);
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (int v : p) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, n);
      ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
      seen[static_cast<std::size_t>(v)] = true;
    }
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 2);
}

TEST(MeanVar, BasicMoments) {
  MeanVar mv;
  for (double x : {1.0, 2.0, 3.0, 4.0}) mv.add(x);
  EXPECT_DOUBLE_EQ(mv.mean(), 2.5);
  EXPECT_NEAR(mv.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(mv.min(), 1.0);
  EXPECT_DOUBLE_EQ(mv.max(), 4.0);
  EXPECT_EQ(mv.count(), 4u);
  EXPECT_DOUBLE_EQ(mv.sum(), 10.0);
}

TEST(MeanVar, EmptyIsZero) {
  MeanVar mv;
  EXPECT_DOUBLE_EQ(mv.mean(), 0.0);
  EXPECT_DOUBLE_EQ(mv.variance(), 0.0);
}

TEST(MeanVar, MergeMatchesCombined) {
  Rng rng(3);
  MeanVar a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, ExactInLinearRegion) {
  Histogram h(64.0);
  for (int i = 0; i < 100; ++i) h.add(5.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.p50(), 5.5, 0.6);  // within the [5,6) bin
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(Histogram, QuantilesOrdered) {
  Histogram h;
  Rng rng(5);
  for (int i = 0; i < 50'000; ++i) h.add(rng.exponential(10.0));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.max());
  // Exponential(10): median = 10*ln2 ~ 6.93, p99 ~ 46.
  EXPECT_NEAR(h.p50(), 6.93, 0.7);
  EXPECT_NEAR(h.p99(), 46.0, 6.0);
}

TEST(Histogram, GeometricTailHoldsLargeValues) {
  Histogram h(8.0, 1.5);
  h.add(1e6);
  h.add(2.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.quantile(1.0), 1e5);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

// Regression: q = 0 and q = 1 must return the exact observed extremes,
// not bin-interpolated edge values (which round min down to its bin's
// lower bound and can push max past the largest sample).
TEST(Histogram, ExtremeQuantilesReturnObservedMinMax) {
  Histogram h(8.0, 1.5);
  h.add(1.5);
  h.add(20.25);
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.25);
  EXPECT_DOUBLE_EQ(h.min(), 1.5);
  EXPECT_DOUBLE_EQ(h.max(), 20.25);
}

TEST(Histogram, SingleSampleQuantilesAllEqualIt) {
  Histogram h;
  h.add(7.3);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.3);
  // Interior quantiles still interpolate within the sample's bin.
  EXPECT_GE(h.p50(), 7.0);
  EXPECT_LE(h.p50(), 8.0);
}

TEST(Histogram, TailQuantileNeverExceedsMax) {
  Histogram h(8.0, 1.5);
  for (int i = 0; i < 99; ++i) h.add(2.0);
  h.add(1000.0);  // deep in a wide geometric bin
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  EXPECT_LE(h.quantile(0.999), h.max());
}

TEST(ThroughputMeter, Utilization) {
  ThroughputMeter m;
  m.advance_slots(100, 4);  // 400 cell opportunities
  for (int i = 0; i < 300; ++i) m.add_delivery();
  EXPECT_DOUBLE_EQ(m.utilization(), 0.75);
}

TEST(ThroughputMeter, EmptyIsZero) {
  ThroughputMeter m;
  EXPECT_DOUBLE_EQ(m.utilization(), 0.0);
}

// The order view of FlowLedger, which replaced the per-pair detector:
// 4x4 ports, flow (src, dst) = src * 4 + dst.
constexpr std::uint64_t pair_flow(int src, int dst) {
  return static_cast<std::uint64_t>(src) * 4 + static_cast<std::uint64_t>(dst);
}

TEST(ReorderDetector, InOrderFlows) {
  FlowLedger d(16, 4);
  for (std::uint64_t s = 0; s < 100; ++s) {
    EXPECT_EQ(d.send(pair_flow(0, 1)), s);
    EXPECT_EQ(d.send(pair_flow(2, 3)), s);
  }
  for (std::uint64_t s = 0; s < 100; ++s) {
    EXPECT_FALSE(d.deliver(pair_flow(0, 1), s));
    EXPECT_FALSE(d.deliver(pair_flow(2, 3), s));
  }
  EXPECT_EQ(d.out_of_order(), 0u);
  EXPECT_EQ(d.delivered(), 200u);
  EXPECT_EQ(d.side_flows(), 0u);  // in-order flows stay dense
}

TEST(ReorderDetector, DetectsReordering) {
  FlowLedger d(16, 4);
  for (int i = 0; i < 3; ++i) d.send(pair_flow(0, 0));
  d.deliver(pair_flow(0, 0), 0);
  d.deliver(pair_flow(0, 0), 2);
  EXPECT_TRUE(d.deliver(pair_flow(0, 0), 1));  // late
  EXPECT_EQ(d.out_of_order(), 1u);
  EXPECT_NEAR(d.reorder_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(ReorderDetector, FlowsAreIndependent) {
  FlowLedger d(16, 4);
  d.deliver(pair_flow(0, 0), 5);
  EXPECT_FALSE(d.deliver(pair_flow(0, 1), 0));  // different flow, fresh sequence
}

// ---- Histogram::merge (exact shard aggregation for the campaign runner)

TEST(HistogramMerge, MatchesSingleHistogramBinForBin) {
  // Two shards of one sample stream must merge into exactly the
  // histogram the full stream produces: same counts, same quantiles.
  Histogram full(64.0, 1.1), a(64.0, 1.1), b(64.0, 1.1);
  Rng rng(0xABCDEF);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform() * 500.0;
    full.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), full.count());
  // The parallel mean/variance combine reassociates the sums, so allow
  // last-bit float differences against the sequential accumulation.
  EXPECT_NEAR(a.mean(), full.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), full.min());
  EXPECT_DOUBLE_EQ(a.max(), full.max());
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(a.quantile(q), full.quantile(q)) << "q=" << q;
}

TEST(HistogramMerge, BucketsAlignAcrossDifferentRanges) {
  // Shards that populated different bin ranges: merge must extend the
  // shorter bin vector, not clip it.
  Histogram a(8.0, 1.5), b(8.0, 1.5);
  for (int i = 0; i < 10; ++i) a.add(2.0);     // low bins only
  for (int i = 0; i < 10; ++i) b.add(5000.0);  // deep geometric bin
  a.merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 5000.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 5000.0);
  // Low half still resolves to the low samples.
  EXPECT_LE(a.quantile(0.25), 8.0);
}

TEST(HistogramMerge, MinMaxAndMeanAfterMerge) {
  Histogram a, b;
  a.add(1.0);
  a.add(3.0);
  b.add(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_NEAR(a.mean(), (1.0 + 3.0 + 100.0) / 3.0, 1e-12);
}

TEST(HistogramMerge, EmptyOperands) {
  Histogram a, b;
  a.add(4.0);
  a.merge(b);  // merging empty is a no-op
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  Histogram c;
  c.merge(a);  // merging into empty adopts the other's contents
  EXPECT_EQ(c.count(), 1u);
  EXPECT_DOUBLE_EQ(c.min(), 4.0);
  EXPECT_DOUBLE_EQ(c.max(), 4.0);
}

TEST(HistogramMerge, MergeOrderInvariant) {
  // a.merge(b) and b.merge(a) agree — required for deterministic
  // aggregation regardless of which shard is the accumulator.
  Histogram a1(64.0, 1.1), b1(64.0, 1.1), a2(64.0, 1.1), b2(64.0, 1.1);
  Rng rng(0x5EED);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 300.0;
    if (i % 3) {
      a1.add(x);
      a2.add(x);
    } else {
      b1.add(x);
      b2.add(x);
    }
  }
  a1.merge(b1);
  b2.merge(a2);
  EXPECT_EQ(a1.count(), b2.count());
  EXPECT_DOUBLE_EQ(a1.mean(), b2.mean());
  EXPECT_DOUBLE_EQ(a1.p50(), b2.p50());
  EXPECT_DOUBLE_EQ(a1.p99(), b2.p99());
}

TEST(HistogramMergeDeathTest, RejectsMismatchedBinShape) {
  Histogram a(64.0, 1.1), b(8.0, 1.5);
  a.add(1.0);
  b.add(1.0);
  EXPECT_DEATH(a.merge(b), "merge");
}

}  // namespace
}  // namespace osmosis::sim
