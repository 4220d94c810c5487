// Tests for the multi-plane striped fabric with egress resequencing.

#include <gtest/gtest.h>

#include "src/fabric/multiplane.hpp"
#include "src/sw/switch_sim.hpp"

namespace osmosis::fabric {
namespace {

MultiPlaneConfig base(int ports, int planes) {
  MultiPlaneConfig cfg;
  cfg.ports = ports;
  cfg.planes = planes;
  cfg.warmup_slots = 500;
  cfg.measure_slots = 10'000;
  return cfg;
}

TEST(MultiPlane, SinglePlaneDegeneratesToPlainSwitch) {
  const auto r = run_multiplane_uniform(base(16, 1), 0.6, 1);
  EXPECT_NEAR(r.throughput_per_plane, 0.6, 0.02);
  EXPECT_EQ(r.post_resequencer_ooo, 0u);
  // One in-order plane: nothing ever waits in the resequencer.
  EXPECT_DOUBLE_EQ(r.mean_resequencing_wait, 0.0);
  EXPECT_EQ(r.cross_plane_ooo, 0u);
}

TEST(MultiPlane, StripingMultipliesAggregateBandwidth) {
  // 4 planes at 0.7 load each = 2.8 cells/slot/port aggregate — far
  // beyond a single line's capacity — delivered in full.
  const auto r = run_multiplane_uniform(base(16, 4), 0.7, 3);
  EXPECT_NEAR(r.throughput_per_plane, 0.7, 0.02);
  EXPECT_GT(r.delivered, 4u * 16u * 10'000u * 6 / 10);
}

TEST(MultiPlane, ResequencerRestoresOrder) {
  const auto r = run_multiplane_uniform(base(16, 4), 0.8, 5);
  // Planes genuinely reorder across each other...
  EXPECT_GT(r.cross_plane_ooo, 0u);
  // ...and the resequencer hides all of it.
  EXPECT_EQ(r.post_resequencer_ooo, 0u);
}

TEST(MultiPlane, ResequencingCostGrowsWithPlaneCountAndLoad) {
  const auto few = run_multiplane_uniform(base(16, 2), 0.8, 7);
  const auto many = run_multiplane_uniform(base(16, 8), 0.8, 7);
  EXPECT_GE(many.max_resequencer_depth, few.max_resequencer_depth);
  const auto light = run_multiplane_uniform(base(16, 4), 0.2, 9);
  const auto heavy = run_multiplane_uniform(base(16, 4), 0.9, 9);
  EXPECT_GT(heavy.mean_resequencing_wait, light.mean_resequencing_wait);
}

TEST(MultiPlane, ResequencerDepthBounded) {
  // The wait is bounded by plane-delay spread, not unbounded growth.
  const auto r = run_multiplane_uniform(base(16, 4), 0.85, 11);
  EXPECT_LT(r.mean_resequencing_wait, 20.0);
  EXPECT_LT(r.max_resequencer_depth, 600);
}

TEST(MultiPlane, WorksWithPipelinedSchedulers) {
  auto cfg = base(16, 3);
  cfg.scheduler = sw::SchedulerKind::kPipelinedIslip;
  const auto r = run_multiplane_uniform(cfg, 0.6, 13);
  EXPECT_NEAR(r.throughput_per_plane, 0.6, 0.02);
  EXPECT_EQ(r.post_resequencer_ooo, 0u);
}

TEST(MultiPlane, OnePlaneEqualsSwitchSim) {
  // A one-plane port is one OSMOSIS switch: on the same traffic it must
  // deliver exactly what SwitchSim delivers, at exactly the same delays.
  // Plane 0's scheduler seed is 0x12AE; 128 ports runs the two-word
  // PortSet path.
  struct Case {
    int ports;
    sw::SchedulerKind kind;
    int receivers;
    double load;
  };
  std::vector<Case> cases;
  for (int rx : {1, 2})
    for (double load : {0.3, 0.6, 0.9})
      cases.push_back({64, sw::SchedulerKind::kFlppr, rx, load});
  for (int rx : {1, 2})
    cases.push_back({128, sw::SchedulerKind::kFlppr, rx, 0.6});
  for (auto kind : {sw::SchedulerKind::kIslip, sw::SchedulerKind::kPim,
                    sw::SchedulerKind::kPipelinedIslip})
    cases.push_back({64, kind, 1, 0.6});
  for (const Case& c : cases) {
    MultiPlaneConfig mp = base(c.ports, 1);
    mp.scheduler = c.kind;
    mp.receivers = c.receivers;
    mp.measure_slots = 3'000;
    sw::SwitchSimConfig ss;
    ss.ports = c.ports;
    ss.sched.kind = c.kind;
    ss.sched.receivers = c.receivers;
    ss.sched.seed = 0x12AE;
    ss.warmup_slots = mp.warmup_slots;
    ss.measure_slots = mp.measure_slots;
    const auto plane = run_multiplane_uniform(mp, c.load, 42);
    const auto single = sw::run_uniform(ss, c.load, 42);
    SCOPED_TRACE(::testing::Message()
                 << single.scheduler << ", " << c.ports << " ports, "
                 << c.receivers << " rx, load " << c.load);
    EXPECT_GT(plane.delivered, 0u);
    EXPECT_EQ(plane.delivered, single.delivered);
    EXPECT_EQ(plane.mean_delay_slots, single.mean_delay);
    EXPECT_EQ(plane.p99_delay_slots, single.p99_delay);
  }
}

TEST(MultiPlane, RejectsGeneratorMismatch) {
  MultiPlaneConfig cfg = base(16, 2);
  std::vector<std::unique_ptr<sim::TrafficGen>> gens;
  gens.push_back(sim::make_uniform(16, 0.5, 1));  // only one generator
  EXPECT_DEATH(MultiPlaneSim(cfg, std::move(gens)),
               "one traffic generator per plane");
}

}  // namespace
}  // namespace osmosis::fabric
