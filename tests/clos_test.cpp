// Tests for the L-level folded-Clos (fat-tree) machine on TopoSim:
// topology construction, routing, cross-validation against the
// dedicated leaf-spine simulator, and 3-vs-5-stage behaviour. The
// uniform-traffic runs pin exact values, so any change to how cells
// move through the tree shows up here, not only a broken property.

#include <gtest/gtest.h>

#include "src/fabric/fabric_sim.hpp"
#include "src/topo/sizing.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/units.hpp"

namespace osmosis::topo {
namespace {

TopoSimConfig clos_config(int radix, int levels) {
  TopoSimConfig cfg;
  cfg.topology = TopoKind::kFatTree;
  cfg.levels = levels;
  cfg.hosts = radix * static_cast<int>(util::ipow(
                          static_cast<std::uint64_t>(radix / 2),
                          static_cast<unsigned>(levels - 1)));
  cfg.trunk_cable_slots = 4;
  cfg.buffer_cells = 16;
  cfg.warmup_slots = 1'000;
  cfg.measure_slots = 10'000;
  return cfg;
}

/// Injects for `cfg.measure_slots`, then drains until every accepted
/// cell has landed (at most 5000 silent slots).
TopoSimConfig conservation_config(int radix, int levels) {
  TopoSimConfig cfg = clos_config(radix, levels);
  cfg.warmup_slots = 0;
  cfg.measure_slots = 3'000;
  cfg.drain_max_slots = 5'000;
  return cfg;
}

TEST(ClosSim, TopologyCountsMatchAnalyticSizing) {
  for (const auto& [radix, levels] : {std::pair{8, 2}, std::pair{8, 3},
                                      std::pair{4, 3}, std::pair{16, 2}}) {
    const TopoSimConfig cfg = clos_config(radix, levels);
    TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.1, 1));
    const auto sizing =
        size_fat_tree(radix, static_cast<std::uint64_t>(cfg.hosts));
    EXPECT_EQ(sim.hosts(), cfg.hosts) << radix << "/" << levels;
    EXPECT_EQ(static_cast<std::uint64_t>(sim.topology().switch_count()),
              sizing.switches_total)
        << radix << "/" << levels;
  }
}

TEST(ClosSim, SingleSwitchDegenerateCase) {
  // L = 1: one switch is leaf, top and fault stage at once.
  const auto r = run_topo_uniform(clos_config(8, 1), 0.6, 3);
  EXPECT_EQ(r.hosts, 8);
  EXPECT_EQ(r.switches, 1);
  EXPECT_EQ(r.stages, 1);
  EXPECT_EQ(r.throughput, 0.60067499999999996);
  EXPECT_EQ(r.delivered, 48'054u);
  EXPECT_EQ(r.mean_delay_slots, 3.1160361260248788);
  EXPECT_EQ(r.mean_hops, 1.0);  // exactly one stage
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
}

TEST(ClosSim, TwoLevelMatchesLeafSpineSimulator) {
  // Same topology, same FC mechanics: the dedicated leaf-spine
  // simulator and the L-level engine must agree exactly.
  const auto tree = run_topo_uniform(clos_config(8, 2), 0.7, 5);

  fabric::FabricSimConfig fc;  // 4-slot trunks and 16-cell buffers
  fc.radix = 8;
  fc.warmup_slots = 1'000;
  fc.measure_slots = 10'000;
  const auto leafspine = fabric::run_fabric_uniform(fc, 0.7, 5);

  EXPECT_EQ(tree.hosts, leafspine.hosts);
  EXPECT_EQ(tree.throughput, leafspine.throughput);
  EXPECT_EQ(tree.delivered, leafspine.delivered);
  EXPECT_EQ(tree.mean_delay_slots, leafspine.mean_delay_slots);
  EXPECT_EQ(tree.p99_delay_slots, leafspine.p99_delay_slots);
  EXPECT_EQ(tree.throughput, 0.70052812499999995);
  EXPECT_EQ(tree.delivered, 224'169u);
  EXPECT_EQ(tree.mean_delay_slots, 11.609437522583386);
  EXPECT_EQ(tree.buffer_overflows, 0u);
  EXPECT_EQ(tree.out_of_order, 0u);
}

TEST(ClosSim, ThreeLevelLosslessAndInOrder) {
  const auto r = run_topo_uniform(clos_config(8, 3), 0.6, 7);  // 80 switches
  EXPECT_EQ(r.hosts, 128);
  EXPECT_EQ(r.stages, 5);
  EXPECT_EQ(r.throughput, 0.59967734375000004);
  EXPECT_EQ(r.delivered, 767'587u);
  EXPECT_EQ(r.mean_delay_slots, 19.287734159124252);
  EXPECT_EQ(r.mean_hops, 4.6867560289584649);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
}

TEST(ClosSim, MoreStagesMoreLatency) {
  // §VI.C at cell level: 128 hosts either as a 3-stage radix-16 fabric
  // or a 5-stage radix-8 fabric. The extra stages cost delay.
  const auto three = run_topo_uniform(clos_config(16, 2), 0.5, 9);
  const auto five = run_topo_uniform(clos_config(8, 3), 0.5, 9);
  ASSERT_EQ(three.hosts, five.hosts);
  EXPECT_EQ(three.mean_hops, 2.8741633241364974);
  EXPECT_EQ(three.mean_delay_slots, 10.787498024216118);
  EXPECT_EQ(five.mean_hops, 4.6854786836963074);
  EXPECT_EQ(five.mean_delay_slots, 18.347957888542425);
  EXPECT_LT(three.mean_hops, five.mean_hops);
  EXPECT_LT(three.mean_delay_slots, five.mean_delay_slots);
}

TEST(ClosSim, HopCountsBoundedByPathStages) {
  const auto r = run_topo_uniform(clos_config(8, 3), 0.3, 11);
  EXPECT_EQ(r.mean_hops, 4.6860410164262598);
  EXPECT_GE(r.mean_hops, 1.0);
  EXPECT_LE(r.mean_hops, 5.0);  // never more than 2L-1 switch traversals
}

TEST(ClosSim, BuffersRespectCapacityAtHighLoad) {
  TopoSimConfig cfg = clos_config(8, 3);
  cfg.buffer_cells = 10;  // just above the trunk RTT of 8
  const auto r = run_topo_uniform(cfg, 0.85, 13);
  EXPECT_EQ(r.delivered, 1'068'307u);
  EXPECT_EQ(r.mean_delay_slots, 135.4494756656986);
  EXPECT_EQ(r.max_occupancy_per_stage, (std::vector<int>{10, 9, 10}));
  EXPECT_EQ(r.buffer_overflows, 0u);
  for (int occ : r.max_occupancy_per_stage) EXPECT_LE(occ, cfg.buffer_cells);
}

TEST(ClosSim, ConservationEveryInjectedCellDelivered) {
  // Inject for 3000 slots, then drain: the fabric must deliver every
  // single cell it accepted, exactly once and in order (losslessness as
  // exact conservation, not just "no overflow counters").
  const TopoSimConfig cfg = conservation_config(8, 3);
  const auto r = run_topo_uniform(cfg, 0.7, 99);
  EXPECT_EQ(r.injected_total, 268'711u);
  EXPECT_EQ(r.injected_total, r.delivered_total);
  EXPECT_TRUE(r.exactly_once_in_order) << r.first_violation;
  EXPECT_EQ(r.buffer_overflows, 0u);
}

// ---- degraded topologies (failed switches) ---------------------------------

TEST(ClosDegraded, FailedSpineReroutesAndConserves) {
  // radix 8, L=2: leaves are ids 0..7, the 4 top-level spines 8..11.
  // Killing one spine re-spreads every flow over the 3 survivors; the
  // fabric must still deliver every accepted cell, in order.
  TopoSimConfig cfg = conservation_config(8, 2);
  cfg.failed_switches = {8};
  const auto r = run_topo_uniform(cfg, 0.6, 7);
  EXPECT_EQ(r.injected_total, 57'553u);
  EXPECT_EQ(r.injected_total, r.delivered_total);
  EXPECT_TRUE(r.exactly_once_in_order) << r.first_violation;
  EXPECT_EQ(r.buffer_overflows, 0u);
}

TEST(ClosDegraded, MidLevelFailureReroutesInsideThePod) {
  // radix 4, L=3: each FT'(2) slice builds leaves then its level-2
  // switches, so id 2 is the first slice's first level-2 switch. Flows
  // out of that pod re-spread over its twin.
  TopoSimConfig cfg = clos_config(4, 3);
  cfg.warmup_slots = 500;
  cfg.measure_slots = 6'000;
  cfg.failed_switches = {2};
  const auto r = run_topo_uniform(cfg, 0.5, 17);
  EXPECT_EQ(r.throughput, 0.50219791666666669);
  EXPECT_EQ(r.delivered, 48'211u);
  EXPECT_EQ(r.mean_delay_slots, 18.33855344216035);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_GT(r.throughput, 0.35);  // degraded but alive
}

TEST(ClosDegraded, FailedLeafIsRejected) {
  // A leaf is its hosts' only attachment point: no reroute exists, so
  // the configuration is refused with the stranded host range named.
  TopoSimConfig cfg = clos_config(8, 2);
  cfg.failed_switches = {0};
  EXPECT_DEATH(run_topo_uniform(cfg, 0.5, 1), "outright");
}

TEST(ClosDegraded, DisconnectingEveryTopSwitchIsRejected) {
  // All 4 spines dead leaves no inter-leaf path at all; the
  // connectivity audit names a disconnected host pair.
  TopoSimConfig cfg = clos_config(8, 2);
  cfg.failed_switches = {8, 9, 10, 11};
  EXPECT_DEATH(run_topo_uniform(cfg, 0.5, 1), "disconnect");
}

TEST(ClosDegraded, OutOfRangeFailedSwitchIsRejected) {
  TopoSimConfig cfg = clos_config(8, 2);
  cfg.failed_switches = {12};  // only 12 switches: ids 0..11
  EXPECT_DEATH(run_topo_uniform(cfg, 0.5, 1), "out of range");
}

TEST(ClosSim, RejectsBadConfigs) {
  // Radix 7 would serve 21 hosts at L=2; no even radix does.
  EXPECT_DEATH(run_topo_uniform(clos_config(7, 2), 0.5, 1), "even");
  TopoSimConfig cfg = clos_config(8, 2);
  cfg.scheduler = sw::SchedulerKind::kFlppr;
  EXPECT_DEATH(run_topo_uniform(cfg, 0.5, 1), "immediate-issue");
}

}  // namespace
}  // namespace osmosis::topo
