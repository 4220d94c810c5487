// Tests for fat-tree sizing (§VI.C), buffer placement (Fig. 2), the
// flow-controlled leaf-spine fabric on TopoSim's two-level fat-tree
// preset (Figs. 3-4), and the fault-aware spine route table.

#include <gtest/gtest.h>

#include <memory>

#include "src/fabric/placement.hpp"
#include "src/topo/route_table.hpp"
#include "src/topo/sizing.hpp"
#include "src/topo/topo_sim.hpp"

namespace osmosis::fabric {
namespace {

using topo::cable_hops;
using topo::path_latency_ns;
using topo::size_fat_tree;
using topo::SpineRouteTable;

// ---- sizing (§VI.C) ----------------------------------------------------------

TEST(FatTree, Osmosis64PortGives2048InThreeStages) {
  // §V/§VI.C: "a two-level (i.e., three-stage) fat-tree topology yields
  // 2048 ports at the fabric level".
  const auto s = size_fat_tree(64, 2048);
  EXPECT_EQ(s.levels, 2);
  EXPECT_EQ(s.path_stages, 3);
  EXPECT_EQ(s.endpoint_ports, 2048u);
  EXPECT_EQ(s.switches_total, 96u);  // 64 leaves + 32 spines
}

TEST(FatTree, HighEndElectronic32PortNeedsFiveStages) {
  const auto s = size_fat_tree(32, 2048);
  EXPECT_EQ(s.path_stages, 5);
  EXPECT_GE(s.endpoint_ports, 2048u);
}

TEST(FatTree, Commodity8PortNeedsNineStages) {
  const auto s = size_fat_tree(8, 2048);
  EXPECT_EQ(s.path_stages, 9);
  EXPECT_GE(s.endpoint_ports, 2048u);
}

TEST(FatTree, Commodity12PortSavesALevel) {
  // "commodity parts will probably offer only 8 to 12 ports": the
  // paper's 9-stage figure corresponds to the 8-port end; 12-port parts
  // reach 2048 endpoints one level earlier (7 stages) — still far more
  // than OSMOSIS' 3.
  const auto s = size_fat_tree(12, 2048);
  EXPECT_EQ(s.path_stages, 7);
  EXPECT_GE(s.endpoint_ports, 2048u);
}

TEST(FatTree, OsmosisSavesTwoOeoLayersVsHighEnd) {
  // §VI.C: "OSMOSIS saves two layers of OEO conversions in the fat tree".
  const auto osmosis = size_fat_tree(64, 2048);
  const auto electronic = size_fat_tree(32, 2048);
  EXPECT_EQ(electronic.oeo_pairs_per_path - osmosis.oeo_pairs_per_path, 2u);
}

TEST(FatTree, SingleSwitchCase) {
  const auto s = size_fat_tree(64, 64);
  EXPECT_EQ(s.levels, 1);
  EXPECT_EQ(s.path_stages, 1);
  EXPECT_EQ(s.switches_total, 1u);
  EXPECT_EQ(s.interswitch_cables, 0u);
}

TEST(FatTree, SwitchCountFormulaHolds) {
  // Folded Clos: total switches = stages * endpoints / radix.
  for (int radix : {8, 16, 32, 64}) {
    const auto s = size_fat_tree(radix, 2048);
    EXPECT_EQ(s.switches_total,
              static_cast<std::uint64_t>(s.path_stages) * s.endpoint_ports /
                  static_cast<std::uint64_t>(radix))
        << "radix " << radix;
  }
}

TEST(FatTree, PathLatencyComposition) {
  const auto s = size_fat_tree(64, 2048);
  // 3 stages x 100 ns + 4 cable hops x 50 ns.
  EXPECT_DOUBLE_EQ(path_latency_ns(s, 100.0, 50.0), 500.0);
  EXPECT_EQ(cable_hops(s), 4);
}

TEST(FatTree, RejectsOddRadix) {
  EXPECT_DEATH(size_fat_tree(7, 100), "even");
}

// ---- buffer placement (Fig. 2) -------------------------------------------------

TEST(Placement, OptionOneDoublesOeo) {
  const auto rows = compare_placements(250.0, 51.2, 51.2);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].oeo_pairs_per_stage, 2);
  EXPECT_EQ(rows[1].oeo_pairs_per_stage, 1);
  EXPECT_EQ(rows[2].oeo_pairs_per_stage, 1);
}

TEST(Placement, OptionTwoPaysCableOnEveryGrant) {
  const double cable = 250.0, cell = 51.2, sched = 51.2;
  const auto o2 = analyze_placement(BufferPlacement::kOutputOnly, cable, cell,
                                    sched);
  const auto o3 = analyze_placement(BufferPlacement::kInputOnly, cable, cell,
                                    sched);
  EXPECT_NEAR(o2.request_grant_rtt_ns - o3.request_grant_rtt_ns, 2.0 * cable,
              1e-9);
}

TEST(Placement, OptionThreeBuffersSizedByRtt) {
  const auto a = analyze_placement(BufferPlacement::kInputOnly, 250.0, 51.2,
                                   51.2);
  // 2 x 250 ns / 51.2 ns/cell ~ 10 cells + margin.
  EXPECT_GE(a.min_input_buffer_cells, 10);
  EXPECT_LE(a.min_input_buffer_cells, 14);
  EXPECT_FALSE(a.point_to_point_fc);  // many-to-one, relayed via scheduler
}

TEST(Placement, BufferCellsForRtt) {
  EXPECT_EQ(buffer_cells_for_rtt(0.0, 51.2, 0), 0);
  EXPECT_EQ(buffer_cells_for_rtt(512.0, 51.2, 2), 12);
}

// ---- multistage simulation (Figs. 3-4) ------------------------------------------
//
// Every run pins its delivered count, mean delay and the invariant
// monitor's check count exactly, so a change to how cells move through
// the fabric shows up here, not only a broken property.

topo::TopoSimConfig small_fabric(int radix = 8) {
  // radix 8: 32 hosts, 8 leaves + 4 spines.
  topo::TopoSimConfig cfg = topo::leaf_spine_config(radix);
  cfg.trunk_cable_slots = 4;
  cfg.buffer_cells = 16;
  cfg.warmup_slots = 1'000;
  cfg.measure_slots = 12'000;
  return cfg;
}

struct FabricRun {
  topo::TopoSimResult r;
  std::uint64_t checks = 0;  // the invariant monitor's slot checks
};

FabricRun run_fabric(const topo::TopoSimConfig& cfg,
                     std::unique_ptr<sim::TrafficGen> traffic) {
  topo::TopoSim sim(cfg, std::move(traffic));
  FabricRun out{sim.run()};
  out.checks = sim.monitor().checks();
  return out;
}

FabricRun run_uniform(const topo::TopoSimConfig& cfg, double load,
                      std::uint64_t seed) {
  return run_fabric(cfg, sim::make_uniform(cfg.hosts, load, seed));
}

TEST(FabricSim, LosslessAndInOrderUnderUniformLoad) {
  const auto [r, checks] = run_uniform(small_fabric(), 0.7, 31);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_GT(r.delivered, 100'000u);
  EXPECT_EQ(r.delivered, 268954u);
  EXPECT_EQ(r.mean_delay_slots, 11.638324769291653);
  EXPECT_EQ(checks, 13000u);
}

TEST(FabricSim, ThroughputMatchesOfferedLoad) {
  const auto low = run_uniform(small_fabric(), 0.3, 37).r;
  EXPECT_NEAR(low.throughput, 0.3, 0.03);
  EXPECT_EQ(low.delivered, 115522u);
  EXPECT_EQ(low.mean_delay_slots, 9.3784906771004071);
  const auto high = run_uniform(small_fabric(), 0.6, 37).r;
  EXPECT_NEAR(high.throughput, 0.6, 0.03);
  EXPECT_EQ(high.delivered, 230684u);
  EXPECT_EQ(high.mean_delay_slots, 10.603973400842618);
}

TEST(FabricSim, BuffersNeverExceedCapacity) {
  auto cfg = small_fabric();
  cfg.buffer_cells = 6;
  const auto r = run_uniform(cfg, 0.9, 41).r;
  EXPECT_EQ(r.buffer_overflows, 0u);
  // Stage 1 is the leaves, stage 2 the spines.
  EXPECT_LE(r.max_occupancy_per_stage[0], cfg.buffer_cells);
  EXPECT_LE(r.max_occupancy_per_stage[1], cfg.buffer_cells);
  EXPECT_EQ(r.max_occupancy_per_stage[0], 6);
  EXPECT_EQ(r.max_occupancy_per_stage[1], 6);
  EXPECT_EQ(r.delivered, 245380u);
  EXPECT_EQ(r.mean_delay_slots, 2035.1971269051678);
}

TEST(FabricSim, SmallBuffersThrottleButNeverDrop) {
  // Figs. 3-4 story: the FC loop has a deterministic RTT; buffers
  // smaller than the RTT product cost throughput, never packets.
  auto starved = small_fabric();
  starved.buffer_cells = 2;  // far below the trunk RTT of ~8 slots
  starved.trunk_cable_slots = 8;
  const auto r_starved = run_uniform(starved, 0.9, 43).r;

  auto sized = small_fabric();
  sized.trunk_cable_slots = 8;
  sized.buffer_cells = buffer_cells_for_rtt(2.0 * 8.0, 1.0, 4);
  const auto r_sized = run_uniform(sized, 0.9, 43).r;

  EXPECT_EQ(r_starved.buffer_overflows, 0u);
  EXPECT_LT(r_starved.throughput, r_sized.throughput * 0.8);
  EXPECT_EQ(r_starved.throughput, 0.092390625000000004);
  EXPECT_EQ(r_sized.throughput, 0.90003124999999995);
}

TEST(FabricSim, RttSizedBuffersSustainHighLoad) {
  auto cfg = small_fabric();
  cfg.trunk_cable_slots = 6;
  cfg.buffer_cells = buffer_cells_for_rtt(2.0 * 6.0, 1.0, 4);
  const auto r = run_uniform(cfg, 0.85, 47).r;
  EXPECT_GT(r.throughput, 0.80);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.delivered, 326698u);
  EXPECT_EQ(r.mean_delay_slots, 19.000125498166849);
}

TEST(FabricSim, HotspotStaysLossless) {
  // Adversarial many-to-one pressure exercises the many-to-one FC that
  // §IV.B's scheduler relay solves.
  auto cfg = small_fabric();
  const auto [r, checks] =
      run_fabric(cfg, sim::make_hotspot(cfg.hosts, 0.6, 5, 0.5, 51));
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.delivered, 23411u);
  EXPECT_EQ(r.mean_delay_slots, 3326.9527999658317);
  EXPECT_EQ(checks, 13000u);
}

TEST(FabricSim, LargerRadixScalesHostCount) {
  auto cfg = small_fabric(16);
  cfg.measure_slots = 4'000;
  const auto r = run_uniform(cfg, 0.5, 53).r;
  EXPECT_EQ(r.hosts, 128);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.delivered, 255724u);
  EXPECT_EQ(r.mean_delay_slots, 10.795998811218336);
}

TEST(FabricSim, DelayIncludesCableFlightTimes) {
  // Remote traffic crosses host + 2 trunk cables + 3 switch stages; the
  // minimum end-to-end delay must exceed the raw flight time.
  auto cfg = small_fabric();
  cfg.trunk_cable_slots = 10;
  const auto r = run_uniform(cfg, 0.1, 59).r;
  // Remote minimum: host(1) + trunk(10) + trunk(10) + egress(1) = 22;
  // 1/8 of traffic is leaf-local (~3 slots), so the mean sits near
  // 0.875 * 22 + 0.125 * 3 ~ 19.6 at light load.
  EXPECT_GT(r.mean_delay_slots, 18.0);
  EXPECT_LT(r.mean_delay_slots, 26.0);
  EXPECT_EQ(r.delivered, 38567u);
  EXPECT_EQ(r.mean_delay_slots, 19.548162937226053);
}

TEST(FabricSim, RequiresImmediateIssueScheduler) {
  auto cfg = small_fabric();
  cfg.scheduler = sw::SchedulerKind::kFlppr;
  EXPECT_DEATH(run_uniform(cfg, 0.5, 61), "immediate-issue");
}

// ---- fault-aware spine route table -----------------------------------------

TEST(SpineRouteTable, NominalRoutingIsDModK) {
  SpineRouteTable rt(4, 100);
  EXPECT_EQ(rt.usable_count(), 4);
  for (int dst = 0; dst < 32; ++dst) EXPECT_EQ(rt.route(dst), dst % 4);
}

TEST(SpineRouteTable, FailureReSpreadsOnlyTheHomedFlows) {
  SpineRouteTable rt(4, 100);
  rt.fail(1);
  EXPECT_EQ(rt.usable_count(), 3);
  EXPECT_FALSE(rt.usable(1));
  for (int dst = 0; dst < 64; ++dst) {
    const int sp = rt.route(dst);
    EXPECT_NE(sp, 1) << "dst " << dst;
    if (dst % 4 != 1) {
      EXPECT_EQ(sp, dst % 4) << "unaffected flow moved, dst " << dst;
    }
  }
  // Deterministic: the same destination always takes the same detour.
  for (int dst = 1; dst < 64; dst += 4) EXPECT_EQ(rt.route(dst), rt.route(dst));
}

TEST(SpineRouteTable, RevivalIsQuarantinedForTheHoldDown) {
  SpineRouteTable rt(4, 100);
  rt.fail(2);
  rt.revive(2, 1'000);
  EXPECT_FALSE(rt.usable(2));  // up, but quarantined
  EXPECT_FALSE(rt.tick(1'050));
  EXPECT_FALSE(rt.usable(2));
  EXPECT_TRUE(rt.tick(1'100));  // hold-down expired: re-admitted
  EXPECT_TRUE(rt.usable(2));
  EXPECT_EQ(rt.usable_count(), 4);
  EXPECT_EQ(rt.route(2), 2);  // homed flows return
}

TEST(SpineRouteTable, ReFailureDuringQuarantineJustStaysDown) {
  SpineRouteTable rt(4, 100);
  rt.fail(3);
  rt.revive(3, 500);
  rt.fail(3);  // flap: re-failed inside the hold-down
  EXPECT_FALSE(rt.tick(5'000));  // quarantine was cancelled by the fail
  EXPECT_FALSE(rt.usable(3));
  rt.revive(3, 6'000);
  EXPECT_TRUE(rt.tick(6'100));
  EXPECT_TRUE(rt.usable(3));
}

TEST(SpineRouteTable, ZeroSurvivorsFallBackToTheMaskedHome) {
  SpineRouteTable rt(2, 10);
  rt.fail(0);
  rt.fail(1);
  EXPECT_EQ(rt.usable_count(), 0);
  for (int dst = 0; dst < 8; ++dst) {
    const int sp = rt.route(dst);
    EXPECT_GE(sp, 0);
    EXPECT_LT(sp, 2);
  }
}

}  // namespace
}  // namespace osmosis::fabric
