// Tests for the synthetic traffic generators: offered load, destination
// distributions, burstiness, and class mix.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "src/sim/traffic.hpp"

namespace osmosis::sim {
namespace {

/// Empirically measures the offered load of any generator.
double measure_load(TrafficGen& gen, int slots) {
  std::uint64_t arrivals = 0;
  Arrival a;
  for (int t = 0; t < slots; ++t)
    for (int in = 0; in < gen.ports(); ++in)
      if (gen.sample(in, a)) ++arrivals;
  return static_cast<double>(arrivals) /
         (static_cast<double>(slots) * gen.ports());
}

struct GenFactory {
  const char* name;
  std::unique_ptr<TrafficGen> (*make)(int ports, double load);
};

// gtest puts GetParam() into the listed test names; without this it dumps
// the raw bytes of the two pointers, which ASLR changes from run to run.
void PrintTo(const GenFactory& f, std::ostream* os) { *os << f.name; }

std::unique_ptr<TrafficGen> make_uni(int p, double l) {
  return make_uniform(p, l, 42);
}
std::unique_ptr<TrafficGen> make_bur(int p, double l) {
  return make_bursty(p, l, 8.0, 42);
}
std::unique_ptr<TrafficGen> make_hot(int p, double l) {
  return make_hotspot(p, l, 3, 0.3, 42);
}
std::unique_ptr<TrafficGen> make_bim(int p, double l) {
  return std::make_unique<BimodalHpc>(p, l, 0.2, Rng(42));
}
std::unique_ptr<TrafficGen> make_perm(int p, double l) {
  return std::make_unique<Permutation>(
      Permutation::diagonal(p, l, 1, Rng(42)));
}

class OfferedLoadTest
    : public ::testing::TestWithParam<std::tuple<GenFactory, double>> {};

TEST_P(OfferedLoadTest, LongRunLoadMatches) {
  const auto& [factory, load] = GetParam();
  auto gen = factory.make(16, load);
  EXPECT_DOUBLE_EQ(gen->offered_load(), load);
  EXPECT_NEAR(measure_load(*gen, 40'000), load, 0.015) << factory.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, OfferedLoadTest,
    ::testing::Combine(
        ::testing::Values(GenFactory{"uniform", make_uni},
                          GenFactory{"bursty", make_bur},
                          GenFactory{"hotspot", make_hot},
                          GenFactory{"bimodal", make_bim},
                          GenFactory{"permutation", make_perm}),
        ::testing::Values(0.1, 0.5, 0.9)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_load" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(BernoulliUniform, DestinationsUniform) {
  BernoulliUniform gen(8, 1.0, Rng(1));
  std::vector<int> counts(8, 0);
  Arrival a;
  const int trials = 80'000;
  for (int i = 0; i < trials; ++i) {
    ASSERT_TRUE(gen.sample(0, a));
    ++counts[static_cast<std::size_t>(a.dst)];
  }
  for (int c : counts) EXPECT_NEAR(c, trials / 8.0, trials * 0.01);
}

TEST(BurstyOnOff, MeanBurstLengthMatches) {
  BurstyOnOff gen(4, 0.3, 10.0, Rng(3));
  // Measure run lengths of consecutive same-destination arrivals on one
  // input.
  Arrival a;
  int bursts = 0;
  std::uint64_t cells = 0;
  bool prev_on = false;
  for (int t = 0; t < 200'000; ++t) {
    const bool on = gen.sample(0, a);
    if (on) {
      ++cells;
      if (!prev_on) ++bursts;
    }
    prev_on = on;
  }
  ASSERT_GT(bursts, 100);
  // Consecutive bursts can merge when the off gap is 0 slots, so the
  // measured run length is slightly above the configured mean.
  const double mean_run = static_cast<double>(cells) / bursts;
  EXPECT_GT(mean_run, 8.0);
  EXPECT_LT(mean_run, 16.0);
}

TEST(BurstyOnOff, BurstTargetsSingleDestination) {
  // Within a burst the destination never changes. Externally, a
  // destination switch during consecutive on-slots can only happen when
  // two bursts merge back-to-back (zero-slot gap), which at low load is
  // rare: P(gap = 0) = p_off_to_on ~ load/(mean_burst(1-load)).
  BurstyOnOff gen(16, 0.2, 16.0, Rng(5));
  Arrival a;
  int prev_dst = -1;
  int switches = 0, cells = 0, runs = 0;
  bool prev_on = false;
  for (int t = 0; t < 200'000; ++t) {
    if (gen.sample(3, a)) {
      ++cells;
      if (!prev_on) ++runs;
      if (prev_on && a.dst != prev_dst) ++switches;
      prev_dst = a.dst;
      prev_on = true;
    } else {
      prev_on = false;
    }
  }
  ASSERT_GT(runs, 500);
  // Mid-run switches only at burst merges: well under 5 % of runs.
  EXPECT_LT(switches, runs / 20);
  EXPECT_GT(cells, 10'000);
}

TEST(Hotspot, HotFractionLands) {
  Hotspot gen(16, 1.0, 5, 0.5, Rng(7));
  Arrival a;
  int hot = 0;
  const int trials = 50'000;
  for (int i = 0; i < trials; ++i) {
    ASSERT_TRUE(gen.sample(1, a));
    if (a.dst == 5) ++hot;
  }
  // 50 % directed + 1/16 of the uniform remainder.
  const double expected = 0.5 + 0.5 / 16.0;
  EXPECT_NEAR(hot / static_cast<double>(trials), expected, 0.01);
}

TEST(Permutation, ConflictFree) {
  auto gen = Permutation::diagonal(8, 1.0, 3, Rng(9));
  Arrival a;
  for (int in = 0; in < 8; ++in) {
    ASSERT_TRUE(gen.sample(in, a));
    EXPECT_EQ(a.dst, (in + 3) % 8);
  }
}

TEST(Permutation, RejectsNonPermutation) {
  EXPECT_DEATH(Permutation(3, 0.5, {0, 0, 1}, Rng(1)), "repeated");
}

TEST(BimodalHpc, ControlFraction) {
  BimodalHpc gen(8, 1.0, 0.25, Rng(11));
  Arrival a;
  int control = 0;
  const int trials = 50'000;
  for (int i = 0; i < trials; ++i) {
    ASSERT_TRUE(gen.sample(0, a));
    if (a.cls == TrafficClass::kControl) ++control;
  }
  EXPECT_NEAR(control / static_cast<double>(trials), 0.25, 0.01);
}

}  // namespace
}  // namespace osmosis::sim
