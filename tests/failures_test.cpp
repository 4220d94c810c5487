// Tests for failure injection and degraded operation: failed optical
// switching modules (dual-receiver redundancy), failed broadcast fibers
// (dark ingress ports), scheduler-side capacity/input masking, the
// crossbar's crosstalk analysis, and mid-run fault injection with
// automatic recovery (exactly-once in-order delivery under module
// death, fiber cuts, grant corruption, burst errors, adapter stalls,
// spine outages and plane failures).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/exec/campaign.hpp"
#include "src/fabric/multiplane.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/phy/crossbar_optical.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/event_switch_sim.hpp"
#include "src/sw/scheduler.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/topo/topo_sim.hpp"

namespace osmosis {
namespace {

// ---- crossbar-level failures ------------------------------------------------

TEST(CrossbarFailures, FailedModuleGoesDark) {
  phy::BroadcastSelectCrossbar xbar;
  xbar.connect(10, 20, 0);
  EXPECT_EQ(xbar.selected_input(20, 0), 10);
  xbar.fail_module(20, 0);
  EXPECT_EQ(xbar.selected_input(20, 0), -1);
  // The egress stays reachable through its second receiver.
  xbar.connect(10, 20, 1);
  EXPECT_EQ(xbar.selected_input(20, 1), 10);
  xbar.repair_module(20, 0);
  EXPECT_EQ(xbar.selected_input(20, 0), 10);  // gates were still set
}

TEST(CrossbarFailures, DualReceiverKeepsFullReachability) {
  phy::BroadcastSelectCrossbar xbar;
  // Kill one module of every egress: every input still reaches all 64.
  for (int eg = 0; eg < 64; ++eg) xbar.fail_module(eg, eg % 2);
  for (int in = 0; in < 64; in += 9)
    EXPECT_EQ(xbar.reachable_egress_count(in), 64);
  // Kill both modules of one egress: exactly one egress lost.
  xbar.fail_module(7, 0);
  xbar.fail_module(7, 1);
  EXPECT_EQ(xbar.reachable_egress_count(0), 63);
}

TEST(CrossbarFailures, FiberFailureDarkensItsWdmGroup) {
  phy::BroadcastSelectCrossbar xbar;
  xbar.fail_fiber(2);  // inputs 16..23 transmit on fiber 2
  xbar.connect(17, 5, 0);
  EXPECT_EQ(xbar.selected_input(5, 0), -1);  // no light from fiber 2
  EXPECT_EQ(xbar.reachable_egress_count(17), 0);
  xbar.connect(3, 5, 0);  // fiber 0 input works normally
  EXPECT_EQ(xbar.selected_input(5, 0), 3);
  xbar.repair_fiber(2);
  xbar.connect(17, 5, 0);
  EXPECT_EQ(xbar.selected_input(5, 0), 17);
}

TEST(Crosstalk, DemonstratorGeometryClearsTolerance) {
  phy::BroadcastSelectCrossbar xbar;
  // 8x8 at 40 dB extinction: SXR ~ 40 - 10log10(14) ~ 28.5 dB.
  EXPECT_NEAR(xbar.signal_to_crosstalk_db(), 28.5, 0.2);
  EXPECT_TRUE(xbar.crosstalk_acceptable());
}

TEST(Crosstalk, DegradesWithExtinctionAndChannelCount) {
  phy::BroadcastSelectConfig weak;
  weak.soa_extinction_db = 20.0;  // poor gates
  phy::BroadcastSelectCrossbar bad(weak);
  EXPECT_FALSE(bad.crosstalk_acceptable());

  phy::BroadcastSelectConfig big;
  big.ports = 256;
  big.fibers = 16;
  big.wavelengths = 16;
  phy::BroadcastSelectCrossbar product(big);
  // More channels -> more leakage paths -> lower SXR than 8x8.
  phy::BroadcastSelectCrossbar demo;
  EXPECT_LT(product.signal_to_crosstalk_db(),
            demo.signal_to_crosstalk_db());
  EXPECT_TRUE(product.crosstalk_acceptable());
}

// ---- scheduler-level masking ---------------------------------------------------

TEST(SchedulerFailures, BlockedInputReceivesNoGrants) {
  sw::SchedulerConfig cfg;
  cfg.kind = sw::SchedulerKind::kFlppr;
  cfg.ports = 8;
  cfg.receivers = 1;
  auto sched = sw::make_scheduler(cfg);
  for (int in = 0; in < 8; ++in) sched->request(in, (in + 1) % 8);
  sched->block_input(3);
  std::uint64_t grants_from_3 = 0, total = 0;
  for (int t = 0; t < 40; ++t) {
    for (const auto& g : sched->tick()) {
      total += 1;
      grants_from_3 += g.input == 3;
    }
  }
  EXPECT_EQ(grants_from_3, 0u);
  EXPECT_EQ(total, 7u);  // everyone else got served
  // Unblocking releases the parked demand.
  sched->unblock_input(3);
  std::uint64_t after = 0;
  for (int t = 0; t < 40; ++t)
    for (const auto& g : sched->tick()) after += g.input == 3;
  EXPECT_EQ(after, 1u);
}

TEST(SchedulerFailures, ReducedCapacityLimitsPerOutputGrants) {
  sw::SchedulerConfig cfg;
  cfg.kind = sw::SchedulerKind::kIslip;
  cfg.ports = 8;
  cfg.receivers = 2;
  auto sched = sw::make_scheduler(cfg);
  sched->set_output_capacity(0, 1);  // one of two receivers failed
  for (int in = 0; in < 8; ++in) sched->request(in, 0);
  const auto grants = sched->tick();
  int to_zero = 0;
  for (const auto& g : grants) {
    if (g.output == 0) {
      ++to_zero;
      EXPECT_EQ(g.receiver, 0);  // single logical receiver
    }
  }
  EXPECT_EQ(to_zero, 1);
}

TEST(SchedulerFailures, ZeroCapacityActsAsBlocked) {
  sw::SchedulerConfig cfg;
  cfg.kind = sw::SchedulerKind::kFlppr;
  cfg.ports = 4;
  cfg.receivers = 2;
  auto sched = sw::make_scheduler(cfg);
  sched->set_output_capacity(2, 0);
  for (int in = 0; in < 4; ++in) sched->request(in, 2);
  for (int t = 0; t < 30; ++t)
    for (const auto& g : sched->tick()) EXPECT_NE(g.output, 2);
  // FC unblock must NOT revive a failed output.
  sched->unblock_output(2);
  for (int t = 0; t < 10; ++t)
    for (const auto& g : sched->tick()) EXPECT_NE(g.output, 2);
}

// ---- switch-level degraded operation ---------------------------------------------

sw::SwitchSimConfig failure_config() {
  sw::SwitchSimConfig cfg;
  cfg.ports = 16;
  cfg.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sched.receivers = 2;
  cfg.warmup_slots = 500;
  cfg.measure_slots = 8'000;
  cfg.validate_optical_path = true;
  return cfg;
}

TEST(SwitchFailures, SingleReceiverLossIsGraceful) {
  // Fail receiver 1 of a quarter of the outputs: the egress line rate
  // (1 cell/slot) still bounds throughput, so moderate load is served
  // in full with slightly higher delay.
  auto cfg = failure_config();
  for (int out = 0; out < 16; out += 4) cfg.failed_receivers.push_back({out, 1});
  const auto degraded = sw::run_uniform(cfg, 0.7, 99);
  const auto healthy = sw::run_uniform(failure_config(), 0.7, 99);
  EXPECT_NEAR(degraded.throughput, 0.7, 0.02);
  EXPECT_EQ(degraded.out_of_order, 0u);
  EXPECT_GE(degraded.mean_delay, healthy.mean_delay * 0.95);
}

TEST(SwitchFailures, FailedFiberIsolatesOnlyItsGroup) {
  auto cfg = failure_config();
  cfg.failed_fibers.push_back(1);  // inputs 4..7 dark (4 fibers x 4 colors)
  const auto r = sw::run_uniform(cfg, 0.6, 101);
  // 12 of 16 inputs remain: aggregate throughput = 0.6 * 12/16.
  EXPECT_NEAR(r.throughput, 0.6 * 12.0 / 16.0, 0.02);
  EXPECT_EQ(r.out_of_order, 0u);
}

TEST(SwitchFailures, OpticalValidationHoldsUnderFailures) {
  auto cfg = failure_config();
  cfg.failed_receivers = {{3, 1}, {8, 0}, {12, 1}};
  cfg.failed_fibers = {2};
  // The run itself asserts every granted light path; surviving-receiver
  // remapping must route grants around failed modules.
  const auto r = sw::run_uniform(cfg, 0.8, 103);
  EXPECT_GT(r.delivered, 10'000u);
  EXPECT_EQ(r.out_of_order, 0u);
}

// ---- runtime fault injection & automatic recovery ---------------------------

sw::SwitchSimConfig fault_config() {
  auto cfg = failure_config();
  cfg.drain_max_slots = 30'000;
  return cfg;
}

// The outcome of one switch run that the single-stage fault model
// decides: the result, the invariant monitor's slot checks and the
// health registry's transition log.
struct SwitchRun {
  sw::SwitchSimResult r;
  std::uint64_t checks = 0;
  std::vector<std::string> health;
};

using Log = std::vector<std::string>;

SwitchRun run_switch(const sw::SwitchSimConfig& cfg, double load,
                     std::uint64_t seed) {
  sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, load, seed));
  // A braced list runs in order: the run first, then its readouts.
  return {sim.run(), sim.monitor().checks(), sim.health().event_log()};
}

TEST(FaultInjection, TransientModuleDeathRecoversExactlyOnce) {
  auto cfg = fault_config();
  cfg.fault_plan.kill_module(2'000, 5, 1, 1'500);
  const auto [r, checks, health] = run_switch(cfg, 0.6, 0xD1);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.missing, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_repaired, 1u);
  EXPECT_EQ(r.faults_recovered, 1u);  // recovery time is finite
  EXPECT_NEAR(r.throughput, 0.6, 0.05);
  EXPECT_EQ(r.delivered, 76992u);
  EXPECT_EQ(r.mean_delay, 1.7818604530340845);
  EXPECT_EQ(r.drained_slots, 2u);
  EXPECT_EQ(checks, 8502u);
  EXPECT_EQ(r.grant_corruptions, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.mean_recovery_slots, 0.0);
  EXPECT_EQ(health, (Log{"t=2000 module/5/1 FAILED (injected)",
                         "t=3500 module/5/1 OK (repaired)"}));
}

TEST(FaultInjection, MidRunFiberCutParksCellsUntilTheSplice) {
  // Unlike a pre-run failed fiber (hosts offline), a mid-run cut leaves
  // the hosts up: their cells park in the VOQs and drain after repair —
  // nothing lost, nothing reordered.
  auto cfg = fault_config();
  cfg.fault_plan.cut_fiber(2'000, 1, 2'000);  // inputs 4..7 dark
  const auto [r, checks, health] = run_switch(cfg, 0.6, 0xD2);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.faults_recovered, 1u);
  EXPECT_GT(r.mean_recovery_slots, 0.0);  // a real backlog had built up
  EXPECT_EQ(r.delivered, 76752u);
  EXPECT_EQ(r.mean_delay, 160.89787888263277);
  EXPECT_EQ(r.drained_slots, 3u);
  EXPECT_EQ(checks, 8503u);
  EXPECT_EQ(r.grant_corruptions, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.mean_recovery_slots, 3096.0);
  EXPECT_EQ(health, (Log{"t=2000 broadcast/1 FAILED (fiber cut)",
                         "t=4000 broadcast/1 OK (spliced)"}));
}

TEST(FaultInjection, GrantCorruptionIsHealedByTheTimeoutPath) {
  auto cfg = fault_config();
  cfg.fault_plan.corrupt_grants(1'000, 5'000, 0.05);
  const auto [r, checks, health] = run_switch(cfg, 0.6, 0xD3);
  EXPECT_GT(r.grant_corruptions, 0u);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.delivered, 76634u);
  EXPECT_EQ(r.mean_delay, 2.0846230132838826);
  EXPECT_EQ(r.drained_slots, 5u);
  EXPECT_EQ(checks, 8505u);
  EXPECT_EQ(r.grant_corruptions, 2485u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.mean_recovery_slots, 21.0);
  EXPECT_EQ(health, (Log{"t=1000 controlpath DEGRADED (grant corruption)",
                         "t=6000 controlpath OK (clean)"}));
}

TEST(FaultInjection, BurstErrorsAreHealedByRetransmission) {
  auto cfg = fault_config();
  cfg.fault_plan.burst_errors(1'000, -1, 5'000, 0.02);
  const auto [r, checks, health] = run_switch(cfg, 0.6, 0xD4);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.delivered, 77006u);
  EXPECT_EQ(r.mean_delay, 1.9000857076072037);
  EXPECT_EQ(r.drained_slots, 3u);
  EXPECT_EQ(checks, 8503u);
  EXPECT_EQ(r.grant_corruptions, 0u);
  EXPECT_EQ(r.retransmissions, 962u);
  EXPECT_EQ(r.mean_recovery_slots, 0.0);
  EXPECT_EQ(health, (Log{"t=1000 link/all DEGRADED (burst errors)",
                         "t=6000 link/all OK (clean)"}));
}

TEST(FaultInjection, AdapterStallBackpressuresLosslessly) {
  auto cfg = fault_config();
  cfg.fault_plan.stall_adapter(2'000, 3, 1'500);
  const auto [r, checks, health] = run_switch(cfg, 0.6, 0xD5);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.faults_recovered, 1u);
  EXPECT_EQ(r.delivered, 76768u);
  EXPECT_EQ(r.mean_delay, 23.468919341392528);
  EXPECT_EQ(r.drained_slots, 9u);
  EXPECT_EQ(checks, 8509u);
  EXPECT_EQ(r.grant_corruptions, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.mean_recovery_slots, 2245.0);
  EXPECT_EQ(health, (Log{"t=2000 adapter/3 DEGRADED (stalled)",
                         "t=3500 adapter/3 OK (resumed)"}));
}

TEST(FaultInjection, PermanentModuleDeathSurvivesOnTheSecondReceiver) {
  auto cfg = fault_config();
  cfg.fault_plan.kill_module(2'000, 5, 1);  // never repaired
  const auto [r, checks, health] = run_switch(cfg, 0.6, 0xD6);
  EXPECT_TRUE(r.exactly_once_in_order);  // survivor carries the egress
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_repaired, 0u);
  EXPECT_EQ(r.faults_recovered, 0u);  // recovery stays open by definition
  EXPECT_NEAR(r.throughput, 0.6, 0.05);
  EXPECT_EQ(r.delivered, 76962u);
  EXPECT_EQ(r.mean_delay, 1.7930407213949859);
  EXPECT_EQ(r.drained_slots, 2u);
  EXPECT_EQ(checks, 8502u);
  EXPECT_EQ(r.grant_corruptions, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.mean_recovery_slots, 0.0);
  EXPECT_EQ(health, (Log{"t=2000 module/5/1 FAILED (injected)"}));
}

TEST(FaultInjection, CombinedFaultsStillDeliverExactlyOnce) {
  auto cfg = fault_config();
  cfg.fault_plan.kill_module(2'000, 5, 1, 1'200)
      .cut_fiber(2'600, 2, 1'000)
      .corrupt_grants(1'500, 4'000, 0.02)
      .burst_errors(2'200, 7, 2'000, 0.03)
      .stall_adapter(3'000, 11, 900);
  const auto [r, checks, health] = run_switch(cfg, 0.6, 0xD7);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.missing, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.faults_injected, 5u);
  EXPECT_EQ(r.faults_repaired, 5u);
  EXPECT_EQ(r.delivered, 76610u);
  EXPECT_EQ(r.mean_delay, 49.384388461036011);
  EXPECT_EQ(r.drained_slots, 2u);
  EXPECT_EQ(checks, 8502u);
  EXPECT_EQ(r.grant_corruptions, 745u);
  EXPECT_EQ(r.retransmissions, 36u);
  EXPECT_EQ(r.mean_recovery_slots, 1670.8);
  EXPECT_EQ(health, (Log{"t=1500 controlpath DEGRADED (grant corruption)",
                         "t=2000 module/5/1 FAILED (injected)",
                         "t=2200 link/7 DEGRADED (burst errors)",
                         "t=2600 broadcast/2 FAILED (fiber cut)",
                         "t=3000 adapter/11 DEGRADED (stalled)",
                         "t=3200 module/5/1 OK (repaired)",
                         "t=3600 broadcast/2 OK (spliced)",
                         "t=3900 adapter/11 OK (resumed)",
                         "t=4200 link/7 OK (clean)",
                         "t=5500 controlpath OK (clean)"}));
}

TEST(FaultInjection, SamePlanAndSeedReplaysBitIdentically) {
  const auto make_cfg = [] {
    auto cfg = fault_config();
    cfg.fault_plan.kill_module(2'000, 5, 1, 1'000)
        .cut_fiber(3'000, 2, 800)
        .corrupt_grants(1'500, 3'000, 0.03)
        .burst_errors(1'500, -1, 3'000, 0.01)
        .seeded(0x5EED);
    return cfg;
  };
  sw::SwitchSim a(make_cfg(), sim::make_uniform(16, 0.6, 0xD8));
  const auto ra = a.run();
  sw::SwitchSim b(make_cfg(), sim::make_uniform(16, 0.6, 0xD8));
  const auto rb = b.run();
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_EQ(ra.offered, rb.offered);
  EXPECT_EQ(ra.grant_corruptions, rb.grant_corruptions);
  EXPECT_EQ(ra.retransmissions, rb.retransmissions);
  EXPECT_EQ(ra.drained_slots, rb.drained_slots);
  EXPECT_DOUBLE_EQ(ra.throughput, rb.throughput);
  EXPECT_DOUBLE_EQ(ra.mean_delay, rb.mean_delay);
  EXPECT_DOUBLE_EQ(ra.mean_recovery_slots, rb.mean_recovery_slots);
  // The determinism audit trail: identical health event logs.
  const Log health = a.health().event_log();
  EXPECT_EQ(health, b.health().event_log());
  EXPECT_EQ(ra.delivered, 76891u);
  EXPECT_EQ(ra.mean_delay, 28.647006801836227);
  EXPECT_EQ(ra.drained_slots, 3u);
  EXPECT_EQ(a.monitor().checks(), 8503u);
  EXPECT_EQ(ra.grant_corruptions, 845u);
  EXPECT_EQ(ra.retransmissions, 278u);
  EXPECT_EQ(ra.mean_recovery_slots, 1185.25);
  EXPECT_EQ(health, (Log{"t=1500 controlpath DEGRADED (grant corruption)",
                         "t=1500 link/all DEGRADED (burst errors)",
                         "t=2000 module/5/1 FAILED (injected)",
                         "t=3000 module/5/1 OK (repaired)",
                         "t=3000 broadcast/2 FAILED (fiber cut)",
                         "t=3800 broadcast/2 OK (spliced)",
                         "t=4500 controlpath OK (clean)",
                         "t=4500 link/all OK (clean)"}));
}

TEST(FaultInjection, ZeroRateWindowLeavesTheTrafficPathUntouched) {
  // The injector owns a private RNG stream, so arming the machinery
  // without any effective fault must not perturb the simulation.
  const auto base = sw::run_uniform(failure_config(), 0.7, 99);
  auto cfg = failure_config();
  cfg.fault_plan.corrupt_grants(1'000, 4'000, 0.0);
  const auto [r, checks, health] = run_switch(cfg, 0.7, 99);
  EXPECT_EQ(r.delivered, base.delivered);
  EXPECT_DOUBLE_EQ(r.throughput, base.throughput);
  EXPECT_DOUBLE_EQ(r.mean_delay, base.mean_delay);
  EXPECT_EQ(r.grant_corruptions, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.delivered, 89278u);
  EXPECT_EQ(r.mean_delay, 2.1802683751876009);
  EXPECT_EQ(r.drained_slots, 0u);
  EXPECT_EQ(checks, 8500u);
  EXPECT_EQ(r.mean_recovery_slots, 0.0);
  EXPECT_EQ(health, (Log{"t=1000 controlpath DEGRADED (grant corruption)",
                         "t=5000 controlpath OK (clean)"}));
}

// bench_failures' combined scenario on 16 ports: a module outage, a
// fiber cut, grant corruption, burst errors on one link and an adapter
// stall, overlapping inside the measurement window.
sw::SwitchSimConfig combined_plan_config() {
  auto cfg = fault_config();
  cfg.measure_slots = 6'000;
  cfg.fault_plan =
      exec::make_fault_plan(exec::FaultScenario::kCombined, 500, 6'000)
          .seeded(0x5EED);
  return cfg;
}

// The transitions that plan drives, at the same cycles in both engines.
Log combined_plan_log() {
  return {"t=2000 module/7/1 FAILED (injected)",
          "t=2000 controlpath DEGRADED (grant corruption)",
          "t=2375 link/5 DEGRADED (burst errors)",
          "t=2500 adapter/12 DEGRADED (stalled)",
          "t=2750 broadcast/3 FAILED (fiber cut)",
          "t=3250 adapter/12 OK (resumed)",
          "t=3500 module/7/1 OK (repaired)",
          "t=3500 controlpath OK (clean)",
          "t=3875 link/5 OK (clean)",
          "t=4250 broadcast/3 OK (spliced)"};
}

TEST(FaultInjection, OpticalValidationHoldsUnderACombinedPlan) {
  // The run asserts every granted light path on the gate-accurate
  // crossbar while modules die, a fiber is cut and an adapter stalls,
  // and the check itself must not change the run.
  auto cfg = combined_plan_config();
  const auto [r, checks, health] = run_switch(cfg, 0.7, 0xD7);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.faults_injected, 5u);
  EXPECT_EQ(r.faults_repaired, 5u);
  EXPECT_EQ(r.delivered, 65647u);
  EXPECT_EQ(r.mean_delay, 147.99840053620068);
  EXPECT_EQ(r.drained_slots, 529u);
  EXPECT_EQ(checks, 7029u);
  EXPECT_EQ(r.grant_corruptions, 135u);
  EXPECT_EQ(r.retransmissions, 17u);
  EXPECT_EQ(r.mean_recovery_slots, 3311.1999999999998);
  EXPECT_EQ(health, combined_plan_log());
  EXPECT_EQ(r.crossbar_reconfigs, 292266u);
  cfg.validate_optical_path = false;
  const auto plain = run_switch(cfg, 0.7, 0xD7);
  EXPECT_EQ(plain.r.crossbar_reconfigs, 0u);
  EXPECT_EQ(plain.r.delivered, r.delivered);
  EXPECT_EQ(plain.r.mean_delay, r.mean_delay);
  EXPECT_EQ(plain.r.grant_corruptions, r.grant_corruptions);
  EXPECT_EQ(plain.r.retransmissions, r.retransmissions);
  EXPECT_EQ(plain.checks, checks);
  EXPECT_EQ(plain.health, health);
}

TEST(FaultInjection, SingleStageSwitchRejectsPlaneFaults) {
  auto cfg = fault_config();
  cfg.fault_plan.fail_plane(100, 0, 50);
  EXPECT_DEATH(sw::run_uniform(cfg, 0.5, 1), "multi-plane");
}

struct EventRun {
  sw::EventSwitchResult r;
  std::uint64_t checks = 0;
  std::vector<std::string> health;
};

EventRun run_event(const sw::EventSwitchConfig& cfg, double load,
                   std::uint64_t seed) {
  sw::EventSwitchSim sim(cfg, sim::make_uniform(cfg.ports, load, seed));
  return {sim.run(), sim.monitor().checks(), sim.health().event_log()};
}

sw::EventSwitchConfig event_fault_config(int ports) {
  sw::EventSwitchConfig cfg;
  cfg.ports = ports;
  cfg.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sched.receivers = 2;
  cfg.warmup_ns = 500 * 51.2;
  cfg.measure_ns = 6'000 * 51.2;
  cfg.drain_max_cycles = 30'000;
  return cfg;
}

TEST(EventSwitchFaults, MidRunFaultsStayExactlyOnceInRealTime) {
  auto cfg = event_fault_config(8);
  cfg.fault_plan.kill_module(1'500, 3, 1, 1'000)
      .corrupt_grants(1'000, 3'000, 0.03)
      .burst_errors(1'000, -1, 3'000, 0.01);
  const auto [r, checks, health] = run_event(cfg, 0.5, 0xE1);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_GT(r.grant_corruptions, 0u);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_EQ(r.faults_injected, 3u);
  EXPECT_EQ(r.faults_repaired, 3u);
  EXPECT_EQ(r.delivered, 23953u);
  EXPECT_EQ(r.mean_delay_ns, 208.3375944666856);
  EXPECT_EQ(r.drained_cycles, 4u);
  EXPECT_EQ(checks, 6504u);
  EXPECT_EQ(r.grant_corruptions, 389u);
  EXPECT_EQ(r.retransmissions, 121u);
  EXPECT_EQ(r.mean_recovery_cycles, 0.33333333333333331);
  EXPECT_EQ(health, (Log{"t=1000 controlpath DEGRADED (grant corruption)",
                         "t=1000 link/all DEGRADED (burst errors)",
                         "t=1500 module/3/1 FAILED (injected)",
                         "t=2500 module/3/1 OK (repaired)",
                         "t=4000 controlpath OK (clean)",
                         "t=4000 link/all OK (clean)"}));
}

TEST(EventSwitchFaults, HealthLogMatchesTheSlotEngine) {
  // The same plan on the same geometry drives the same transitions at
  // the same cell cycles in both engines.
  auto cfg = event_fault_config(16);
  cfg.fault_plan = combined_plan_config().fault_plan;
  const auto [r, checks, health] = run_event(cfg, 0.7, 0xD7);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.faults_injected, 5u);
  EXPECT_EQ(r.faults_repaired, 5u);
  EXPECT_EQ(r.delivered, 67363u);
  EXPECT_EQ(r.mean_delay_ns, 8269.1059246300483);
  EXPECT_EQ(r.drained_cycles, 531u);
  EXPECT_EQ(checks, 7031u);
  EXPECT_EQ(r.grant_corruptions, 132u);
  EXPECT_EQ(r.retransmissions, 16u);
  EXPECT_EQ(r.mean_recovery_cycles, 3282.1999999999998);
  EXPECT_EQ(health, combined_plan_log());
  EXPECT_EQ(health, run_switch(combined_plan_config(), 0.7, 0xD7).health);
}

// The leaf-spine fabric runs on TopoSim's two-level fat-tree preset and
// pins its exact outcome: the invariant monitor's slot checks, the drain
// length, recovery timing and, under graceful degradation, every shed,
// re-steer and resequencer count.
struct FabricRun {
  topo::TopoSimResult r;
  std::uint64_t checks = 0;
};

FabricRun run_fabric(const topo::TopoSimConfig& cfg, double load,
                     std::uint64_t seed) {
  topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, load, seed));
  FabricRun out{sim.run()};
  out.checks = sim.monitor().checks();
  return out;
}

// Every cell the sources generated: admitted into the fabric or shed.
std::uint64_t generated(const topo::TopoSimResult& r) {
  return r.injected_total + r.shed_cells;
}

topo::TopoSimConfig radix8_fabric() {
  topo::TopoSimConfig cfg = topo::leaf_spine_config(8);  // 4 spines, 32 hosts
  cfg.warmup_slots = 1'000;
  cfg.measure_slots = 8'000;
  return cfg;
}

TEST(FabricFaults, TransientSpineOutageBackpressuresLosslessly) {
  auto cfg = radix8_fabric();
  cfg.drain_max_slots = 30'000;
  cfg.fault_plan.fail_plane(3'000, 1, 1'500);  // spine 1 down
  const auto [r, checks] = run_fabric(cfg, 0.5, 0xFB1);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_repaired, 1u);
  EXPECT_EQ(r.faults_recovered, 1u);
  EXPECT_EQ(r.delivered, 128019u);
  EXPECT_EQ(r.mean_delay_slots, 276.66308907271696);
  EXPECT_EQ(r.drained_slots, 13u);
  EXPECT_EQ(checks, 9013u);
  EXPECT_EQ(r.mean_recovery_slots, 1867.0);
}

TEST(FabricFaults, PermanentSpineLossIsRejected) {
  // d-mod-k routing has no alternate path: a permanent spine death
  // would strand every flow routed through it, so the configuration is
  // refused up front instead of deadlocking the run.
  auto cfg = topo::leaf_spine_config(8);
  cfg.fault_plan.fail_plane(3'000, 1);  // duration 0 = permanent
  EXPECT_DEATH(run_fabric(cfg, 0.5, 1), "transient");
}

TEST(FabricFaults, AdaptiveRoutingCarriesAPermanentSpineCut) {
  // Graceful degradation: with fault-aware adaptive routing and
  // degraded-mode admission, a permanent spine cut is survivable — the
  // surviving spines carry re-spread flows, the sources shed the excess,
  // and every non-shed cell still arrives exactly once in order.
  auto cfg = radix8_fabric();
  cfg.drain_max_slots = 200'000;
  cfg.adaptive_routing = true;
  cfg.admission = true;

  const auto [base, base_checks] = run_fabric(cfg, 0.85, 0xFB5);
  EXPECT_TRUE(base.exactly_once_in_order);
  EXPECT_EQ(base.shed_cells, 0u);  // full capacity: nothing engages
  EXPECT_EQ(base.delivered, 217686u);
  EXPECT_EQ(base.mean_delay_slots, 15.44840733901119);
  EXPECT_EQ(base.drained_slots, 21u);
  EXPECT_EQ(base_checks, 9021u);
  EXPECT_EQ(base.resteered, 0u);
  EXPECT_EQ(base.brownout_slots, 0u);

  cfg.fault_plan.fail_plane(3'000, 1);  // duration 0 = permanent
  const auto [r, checks] = run_fabric(cfg, 0.85, 0xFB5);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_GT(r.resteered, 0u);       // VOQ cells moved off the dead uplink
  EXPECT_GT(r.shed_cells, 0u);      // 0.85 load > 0.75 surviving capacity
  EXPECT_GT(r.brownout_slots, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);  // shed accounting closes
  EXPECT_EQ(r.faults_repaired, 0u);
  // Availability floor: 3/4 survivors must sustain at least 3/4 of the
  // fault-free throughput, less a 10% transient allowance.
  EXPECT_GE(r.throughput, 0.75 * base.throughput * 0.9);
  EXPECT_EQ(r.delivered, 162301u);
  EXPECT_EQ(r.mean_delay_slots, 426.59955884436937);
  EXPECT_EQ(r.drained_slots, 1936u);
  EXPECT_EQ(checks, 10936u);
  EXPECT_EQ(generated(r), 244851u);
  EXPECT_EQ(r.shed_cells, 26242u);
  EXPECT_EQ(r.resteered, 21u);
  EXPECT_EQ(r.reroute_ooo, 1u);
  EXPECT_EQ(r.max_resequencer_depth, 1u);
  EXPECT_EQ(r.brownout_slots, 6000u);
}

TEST(FabricFaults, AdaptiveResteerKeepsResequencerDepthBounded) {
  // The egress resequencer only ever parks cells that were overtaken
  // during a re-steer; its depth must stay far below the in-flight
  // population (bounded by the trunk pipes + input buffers, not by the
  // run length).
  auto cfg = radix8_fabric();
  cfg.warmup_slots = 500;
  cfg.measure_slots = 6'000;
  cfg.drain_max_slots = 200'000;
  cfg.adaptive_routing = true;
  cfg.admission = true;
  // Repeated cut/revive of two spines forces re-steers in both
  // directions through the hysteresis hold-down.
  cfg.fault_plan.fail_plane(1'000, 0, 800)
      .fail_plane(2'500, 1, 800)
      .fail_plane(4'000, 0);  // then spine 0 goes for good
  const auto [r, checks] = run_fabric(cfg, 0.7, 0xFB6);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_GT(r.resteered, 0u);
  EXPECT_LE(r.max_resequencer_depth, 512u);
  EXPECT_EQ(r.invariant_violations, 0u);  // shed accounting closes
  EXPECT_EQ(r.delivered, 120285u);
  EXPECT_EQ(r.mean_delay_slots, 212.60201188842871);
  EXPECT_EQ(r.drained_slots, 878u);
  EXPECT_EQ(checks, 7378u);
  EXPECT_EQ(r.faults_recovered, 2u);
  EXPECT_EQ(r.mean_recovery_slots, 4664.5);
  EXPECT_EQ(generated(r), 145546u);
  EXPECT_EQ(r.shed_cells, 1097u);
  EXPECT_EQ(r.resteered, 168u);
  EXPECT_EQ(r.reroute_ooo, 269u);
  EXPECT_EQ(r.max_resequencer_depth, 19u);
  EXPECT_EQ(r.brownout_slots, 4612u);
}

TEST(FabricFaults, AdaptiveTransientOutageRecoversThroughHysteresis) {
  // A transient outage under adaptive routing: flows re-spread away,
  // then return only after the revival hold-down expires; the run must
  // recover and stay exactly-once with no residual reorder.
  auto cfg = radix8_fabric();
  cfg.drain_max_slots = 60'000;
  cfg.adaptive_routing = true;
  cfg.fault_plan.fail_plane(3'000, 1, 1'500);
  const auto [r, checks] = run_fabric(cfg, 0.5, 0xFB7);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.faults_repaired, 1u);
  EXPECT_EQ(r.faults_recovered, 1u);
  EXPECT_GT(r.resteered, 0u);
  EXPECT_EQ(r.delivered, 128269u);
  EXPECT_EQ(r.mean_delay_slots, 10.537129002331202);
  EXPECT_EQ(r.drained_slots, 13u);
  EXPECT_EQ(checks, 9013u);
  EXPECT_EQ(r.mean_recovery_slots, 285.0);
  EXPECT_EQ(r.shed_cells, 0u);
  EXPECT_EQ(r.resteered, 1u);
  EXPECT_EQ(r.reroute_ooo, 0u);
  EXPECT_EQ(r.max_resequencer_depth, 0u);
  EXPECT_EQ(r.brownout_slots, 1756u);
}

TEST(FabricFaults, CuttingEverySpineIsRejectedEvenWithAdaptiveRouting) {
  // Adaptive routing needs at least one survivor to re-steer onto; a
  // plan that permanently cuts all spines is refused up front.
  auto cfg = topo::leaf_spine_config(8);
  cfg.adaptive_routing = true;
  for (int sp = 0; sp < 4; ++sp) cfg.fault_plan.fail_plane(3'000, sp);
  EXPECT_DEATH(run_fabric(cfg, 0.5, 1), "surviving");
}

TEST(FabricFaults, HostStallRecoversThroughCreditFlowControl) {
  auto cfg = radix8_fabric();
  cfg.drain_max_slots = 30'000;
  cfg.fault_plan.stall_adapter(3'000, 5, 1'500);
  const auto [r, checks] = run_fabric(cfg, 0.5, 0xFB2);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.buffer_overflows, 0u);
  EXPECT_EQ(r.faults_recovered, 1u);
  EXPECT_EQ(r.delivered, 128069u);
  EXPECT_EQ(r.mean_delay_slots, 19.066034715661239);
  EXPECT_EQ(r.drained_slots, 13u);
  EXPECT_EQ(checks, 9013u);
  EXPECT_EQ(r.mean_recovery_slots, 1657.0);
}

TEST(MultiPlaneFaults, TransientPlaneLossResteersAndStaysInOrder) {
  fabric::MultiPlaneConfig cfg;
  cfg.ports = 8;
  cfg.planes = 4;
  cfg.warmup_slots = 500;
  cfg.measure_slots = 6'000;
  cfg.drain_max_slots = 20'000;
  cfg.fault_plan.fail_plane(2'000, 1, 2'000);
  const auto r = fabric::run_multiplane_uniform(cfg, 0.5, 0xFB3);
  EXPECT_TRUE(r.exactly_once_in_order);
  EXPECT_EQ(r.post_resequencer_ooo, 0u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_repaired, 1u);
  EXPECT_EQ(r.faults_recovered, 1u);
}

TEST(MultiPlaneFaults, PermanentPlaneLossDegradesToTheSurvivors) {
  fabric::MultiPlaneConfig cfg;
  cfg.ports = 8;
  cfg.planes = 4;
  cfg.warmup_slots = 500;
  cfg.measure_slots = 6'000;
  cfg.drain_max_slots = 20'000;
  cfg.fault_plan.fail_plane(2'000, 2);  // never revived
  const auto r = fabric::run_multiplane_uniform(cfg, 0.4, 0xFB4);
  EXPECT_TRUE(r.exactly_once_in_order);  // re-steer saved the parked cells
  EXPECT_GT(r.resteered, 0u);
  EXPECT_EQ(r.post_resequencer_ooo, 0u);
  EXPECT_EQ(r.faults_repaired, 0u);
}

}  // namespace
}  // namespace osmosis
