// Unit tests for the fault-injection layer: FaultPlan builders, the
// FaultInjector timeline/roll determinism contract, the flow ledger's
// exactly-once audit, the recovery-time tracker, the management-side
// validators for static failures and fault plans, and the chaos
// InvariantMonitor (silent under every declared fault kind; every
// invariant demonstrably fires against a deliberately broken ledger).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/chaos/trial.hpp"
#include "src/core/config.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/faults/invariant.hpp"
#include "src/mgmt/config_check.hpp"
#include "src/sim/flow_ledger.hpp"

namespace osmosis {
namespace {

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, BuildersRecordEventsInOrder) {
  faults::FaultPlan plan;
  plan.kill_module(100, 3, 1, 50)
      .cut_fiber(200, 2)
      .burst_errors(300, 5, 40, 0.1)
      .corrupt_grants(400, 20, 0.05)
      .stall_adapter(500, 7, 10)
      .fail_plane(600, 1, 30);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_FALSE(plan.empty());
  const auto& e = plan.events();
  EXPECT_EQ(e[0].kind, faults::FaultKind::kModuleDeath);
  EXPECT_TRUE(e[0].transient());
  EXPECT_EQ(e[0].end_slot(), 150u);
  EXPECT_EQ(e[1].kind, faults::FaultKind::kFiberCut);
  EXPECT_FALSE(e[1].transient());  // duration 0 = permanent
  EXPECT_EQ(e[2].rate, 0.1);
  EXPECT_EQ(e[4].a, 7);
  EXPECT_TRUE(plan.has_permanent_fault());
}

TEST(FaultPlan, RejectsNonProbabilityRates) {
  faults::FaultPlan plan;
  EXPECT_DEATH(plan.burst_errors(0, 1, 10, 1.5), "probability");
}

TEST(FaultPlan, RejectsPermanentRateWindows) {
  faults::FaultPlan plan;
  EXPECT_DEATH(plan.corrupt_grants(0, 0, 0.1), "transient");
  EXPECT_DEATH(plan.stall_adapter(0, 1, 0), "transient");
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, TimelineFiresBeginAndRepairAtTheRightSlots) {
  faults::FaultPlan plan;
  plan.kill_module(10, 2, 0, 5).cut_fiber(12, 1);
  faults::FaultInjector inj(plan);
  EXPECT_EQ(inj.pending(), 3u);  // 2 begins + 1 repair

  for (std::uint64_t t = 0; t < 10; ++t)
    EXPECT_TRUE(inj.tick(t).empty());
  const auto at10 = inj.tick(10);
  ASSERT_EQ(at10.size(), 1u);
  EXPECT_TRUE(at10[0].begin);
  EXPECT_EQ(at10[0].event.kind, faults::FaultKind::kModuleDeath);
  EXPECT_EQ(inj.active_faults(), 1);

  const auto at12 = inj.tick(12);
  ASSERT_EQ(at12.size(), 1u);
  EXPECT_EQ(at12[0].event.kind, faults::FaultKind::kFiberCut);

  EXPECT_TRUE(inj.tick(13).empty());
  const auto at15 = inj.tick(15);
  ASSERT_EQ(at15.size(), 1u);
  EXPECT_FALSE(at15[0].begin);  // module repair
  EXPECT_EQ(inj.pending(), 0u);
  EXPECT_EQ(inj.active_faults(), 1);  // permanent fiber cut stays open
  EXPECT_EQ(inj.log().size(), 3u);
}

TEST(FaultInjector, LateTickCatchesUpMissedTransitions) {
  faults::FaultPlan plan;
  plan.kill_module(5, 0, 0, 2);
  faults::FaultInjector inj(plan);
  // One call far past both slots delivers begin AND repair, in order.
  const auto both = inj.tick(100);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_TRUE(both[0].begin);
  EXPECT_FALSE(both[1].begin);
}

TEST(FaultInjector, RollsOnlyInsideActiveWindows) {
  faults::FaultPlan plan;
  plan.corrupt_grants(10, 5, 1.0).burst_errors(10, 3, 5, 1.0);
  faults::FaultInjector inj(plan);
  inj.tick(0);
  EXPECT_FALSE(inj.corrupt_grant());       // window not open yet
  EXPECT_FALSE(inj.corrupt_transfer(3));
  inj.tick(10);
  EXPECT_TRUE(inj.corrupt_grant());        // rate 1.0: certain
  EXPECT_TRUE(inj.corrupt_transfer(3));
  EXPECT_FALSE(inj.corrupt_transfer(4));   // burst scoped to ingress 3
  inj.tick(15);                            // windows closed
  EXPECT_FALSE(inj.corrupt_grant());
  EXPECT_FALSE(inj.corrupt_transfer(3));
}

TEST(FaultInjector, SamePlanSameSeedReplaysIdentically) {
  faults::FaultPlan plan;
  plan.corrupt_grants(0, 200, 0.35).seeded(0xBEEF);
  faults::FaultInjector a(plan);
  faults::FaultInjector b(plan);
  std::vector<bool> rolls_a, rolls_b;
  for (std::uint64_t t = 0; t < 200; ++t) {
    a.tick(t);
    b.tick(t);
    for (int k = 0; k < 3; ++k) {
      rolls_a.push_back(a.corrupt_grant());
      rolls_b.push_back(b.corrupt_grant());
    }
  }
  EXPECT_EQ(rolls_a, rolls_b);
  EXPECT_EQ(a.log(), b.log());
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  faults::FaultPlan base;
  base.corrupt_grants(0, 500, 0.5);
  faults::FaultInjector a(base);
  faults::FaultPlan reseeded = base;
  reseeded.seeded(0x1234);
  faults::FaultInjector b(reseeded);
  int differ = 0;
  for (std::uint64_t t = 0; t < 500; ++t) {
    a.tick(t);
    b.tick(t);
    differ += a.corrupt_grant() != b.corrupt_grant();
  }
  EXPECT_GT(differ, 0);
}

// ---- exactly-once audit (sim::FlowLedger) ---------------------------------

TEST(ExactlyOnce, CleanRunPasses) {
  sim::FlowLedger c(16, 4);
  for (int i = 0; i < 5; ++i) c.send(7);
  for (int i = 0; i < 5; ++i) c.deliver(7, static_cast<std::uint64_t>(i));
  const auto r = c.report();
  EXPECT_TRUE(r.exactly_once_in_order());
  EXPECT_EQ(r.offered, 5u);
  EXPECT_EQ(r.delivered, 5u);
}

TEST(ExactlyOnce, DetectsDuplicates) {
  sim::FlowLedger c(16, 4);
  c.send(1);
  c.send(1);
  c.deliver(1, 0);
  c.deliver(1, 0);  // duplicate
  c.deliver(1, 1);
  const auto r = c.report();
  EXPECT_FALSE(r.exactly_once_in_order());
  EXPECT_EQ(r.duplicates, 1u);
}

TEST(ExactlyOnce, DetectsReorderingAndMissing) {
  sim::FlowLedger c(16, 4);
  for (int i = 0; i < 3; ++i) c.send(2);
  c.deliver(2, 1);  // 0 skipped: reorder, and 0 never arrives
  c.deliver(2, 2);
  const auto r = c.report();
  EXPECT_FALSE(r.exactly_once_in_order());
  EXPECT_GE(r.reordered, 1u);
  EXPECT_EQ(r.missing, 1u);
}

TEST(ExactlyOnce, TracksFlowsIndependently) {
  sim::FlowLedger c(16, 4);
  c.send(10);
  c.send(11);
  c.deliver(11, 0);
  c.deliver(10, 0);  // cross-flow interleave is fine
  EXPECT_TRUE(c.report().exactly_once_in_order());
}

// ---- RecoveryTracker -------------------------------------------------------

TEST(RecoveryTracker, MeasuresRepairToBaselineBacklog) {
  faults::RecoveryTracker rt;
  rt.on_fault(100, "cut", 4);  // baseline backlog 4
  rt.observe(150, 50);         // still faulty, backlog ballooning
  rt.on_repair(200, "cut");
  rt.observe(210, 30);         // draining
  rt.observe(240, 4);          // back at baseline -> recovered
  rt.observe(260, 2);          // no double count
  EXPECT_EQ(rt.faults(), 1u);
  EXPECT_EQ(rt.repaired(), 1u);
  EXPECT_EQ(rt.recovered(), 1u);
  EXPECT_DOUBLE_EQ(rt.mean_recovery_slots(), 40.0);
  EXPECT_DOUBLE_EQ(rt.max_recovery_slots(), 40.0);
}

TEST(RecoveryTracker, UnrepairedFaultNeverRecovers) {
  faults::RecoveryTracker rt;
  rt.on_fault(10, "perm", 0);
  for (std::uint64_t t = 11; t < 100; ++t) rt.observe(t, 0);
  EXPECT_EQ(rt.recovered(), 0u);
  EXPECT_EQ(rt.repaired(), 0u);
}

TEST(RecoveryTracker, OverlappingWindowsRecoverIndependently) {
  // Two faults whose windows overlap: each recovery is timed from ITS
  // OWN repair against ITS OWN onset baseline, not from the other's.
  faults::RecoveryTracker rt;
  rt.on_fault(100, "a", 4);   // baseline 4
  rt.on_fault(150, "b", 20);  // opened while "a" is still down
  rt.on_repair(200, "a");
  rt.observe(230, 18);        // above a's baseline, b unrepaired: nothing
  EXPECT_EQ(rt.recovered(), 0u);
  rt.on_repair(250, "b");
  rt.observe(260, 15);        // b recovers (15 <= 20), dt = 10; a waits
  EXPECT_EQ(rt.recovered(), 1u);
  rt.observe(300, 3);         // a recovers (3 <= 4), dt = 100
  EXPECT_EQ(rt.faults(), 2u);
  EXPECT_EQ(rt.repaired(), 2u);
  EXPECT_EQ(rt.recovered(), 2u);
  EXPECT_DOUBLE_EQ(rt.mean_recovery_slots(), 55.0);
  EXPECT_DOUBLE_EQ(rt.max_recovery_slots(), 100.0);
  EXPECT_EQ(rt.recovery_histogram().count(), 2u);
}

TEST(RecoveryTracker, AdjacentWindowsOnOneKeyCountSeparately) {
  // The same component failing again right after recovering opens a
  // fresh window with a fresh baseline and MTTR sample.
  faults::RecoveryTracker rt;
  rt.on_fault(100, "spine/0", 2);
  rt.on_repair(150, "spine/0");
  rt.observe(170, 1);  // recovered, dt = 20
  rt.on_fault(180, "spine/0", 6);
  rt.on_repair(240, "spine/0");
  rt.observe(250, 6);  // recovered, dt = 10
  EXPECT_EQ(rt.faults(), 2u);
  EXPECT_EQ(rt.recovered(), 2u);
  EXPECT_DOUBLE_EQ(rt.mean_recovery_slots(), 15.0);
  EXPECT_EQ(rt.recovery_histogram().count(), 2u);
}

// ---- management-side validation --------------------------------------------

core::OsmosisConfig demo_config() { return core::OsmosisConfig{}; }

TEST(ValidateFailures, AcceptsSurvivableSets) {
  const auto f = mgmt::validate_failures(demo_config(), {{0, 1}, {5, 0}},
                                         {2});
  EXPECT_TRUE(mgmt::config_ok(f));
}

TEST(ValidateFailures, RejectsOutOfRangeAndDeadEgress) {
  const auto bad_range =
      mgmt::validate_failures(demo_config(), {{64, 0}}, {});
  EXPECT_FALSE(mgmt::config_ok(bad_range));

  // Both modules of egress 3 dead: the port is unreachable.
  const auto dead =
      mgmt::validate_failures(demo_config(), {{3, 0}, {3, 1}}, {});
  EXPECT_FALSE(mgmt::config_ok(dead));

  const auto bad_fiber = mgmt::validate_failures(demo_config(), {}, {8});
  EXPECT_FALSE(mgmt::config_ok(bad_fiber));
}

TEST(ValidateFailures, FlagsDuplicatesAsWarnings) {
  const auto f =
      mgmt::validate_failures(demo_config(), {{1, 0}, {1, 0}}, {2, 2});
  EXPECT_TRUE(mgmt::config_ok(f));  // warnings, not errors
  int warnings = 0;
  for (const auto& x : f) warnings += x.severity == mgmt::Severity::kWarning;
  EXPECT_EQ(warnings, 2);
}

TEST(ValidateFailures, AllFibersDarkIsAnError) {
  std::vector<int> all;
  for (int i = 0; i < 8; ++i) all.push_back(i);
  EXPECT_FALSE(mgmt::config_ok(
      mgmt::validate_failures(demo_config(), {}, all)));
}

TEST(ValidateFaultPlan, AcceptsAWellFormedPlan) {
  faults::FaultPlan plan;
  plan.kill_module(100, 3, 1, 50)
      .cut_fiber(200, 2, 100)
      .burst_errors(300, -1, 40, 0.1)
      .corrupt_grants(400, 20, 0.05)
      .stall_adapter(500, 7, 10);
  const auto f = mgmt::validate_fault_plan(demo_config(), plan);
  EXPECT_TRUE(mgmt::config_ok(f));
}

TEST(ValidateFaultPlan, RejectsOutOfRangeTargets) {
  faults::FaultPlan plan;
  plan.kill_module(0, 64, 0, 10);  // egress out of range
  EXPECT_FALSE(mgmt::config_ok(
      mgmt::validate_fault_plan(demo_config(), plan)));

  faults::FaultPlan fiber;
  fiber.cut_fiber(0, 9);
  EXPECT_FALSE(mgmt::config_ok(
      mgmt::validate_fault_plan(demo_config(), fiber)));

  faults::FaultPlan stall;
  stall.stall_adapter(0, 64, 10);
  EXPECT_FALSE(mgmt::config_ok(
      mgmt::validate_fault_plan(demo_config(), stall)));
}

TEST(ValidateFaultPlan, WarnsWhenBothModulesOfAnEgressOverlap) {
  faults::FaultPlan plan;
  plan.kill_module(100, 3, 0, 200).kill_module(150, 3, 1, 200);
  const auto f = mgmt::validate_fault_plan(demo_config(), plan);
  EXPECT_TRUE(mgmt::config_ok(f));  // masked output is legal
  bool warned = false;
  for (const auto& x : f)
    warned |= x.severity == mgmt::Severity::kWarning;
  EXPECT_TRUE(warned);
}

TEST(ValidateFaultPlan, RejectsPermanentFaultsCoveringEveryParallelPath) {
  // With 4 parallel spines/planes, permanently cutting all 4 strands
  // every host no matter how adaptive the routing is — the plan must be
  // rejected up front. 3 of 4 (plus a transient on the 4th) is fine.
  faults::FaultPlan all;
  for (int sp = 0; sp < 4; ++sp) all.fail_plane(100 + sp, sp);
  EXPECT_FALSE(mgmt::config_ok(
      mgmt::validate_fault_plan(demo_config(), all, /*parallel_paths=*/4)));

  faults::FaultPlan three;
  for (int sp = 0; sp < 3; ++sp) three.fail_plane(100 + sp, sp);
  three.fail_plane(400, 3, 200);  // transient: repaired, does not count
  EXPECT_TRUE(mgmt::config_ok(
      mgmt::validate_fault_plan(demo_config(), three, 4)));

  // Duplicate permanent events on one path count once.
  faults::FaultPlan dup;
  dup.fail_plane(100, 0).fail_plane(900, 0).fail_plane(200, 1);
  EXPECT_TRUE(mgmt::config_ok(
      mgmt::validate_fault_plan(demo_config(), dup, 4)));

  // parallel_paths = 0 (single-path simulators) keeps legacy behaviour.
  EXPECT_TRUE(mgmt::config_ok(
      mgmt::validate_fault_plan(demo_config(), all, 0)));
}

TEST(ValidateFaultPlan, NonOverlappingModuleKillsDoNotWarn) {
  faults::FaultPlan plan;
  plan.kill_module(100, 3, 0, 50).kill_module(500, 3, 1, 50);
  for (const auto& x : mgmt::validate_fault_plan(demo_config(), plan))
    EXPECT_NE(x.severity, mgmt::Severity::kWarning);
}

// ---- InvariantMonitor: silent under every declared fault kind --------------
//
// The monitor must never mistake a *declared* fault (whose effects the
// simulators handle correctly — masking, retries, resequencing) for an
// invariant violation. One trial per fault kind, on a simulator whose
// constructor accepts it.

namespace {

chaos::TrialSpec chaos_spec(chaos::TrialSim sim) {
  chaos::TrialSpec s;
  s.campaign_seed = 77;
  s.trial_index = 0;
  s.seed = 0x6b45'9c1e'22f0'8d31ULL;
  s.sim = sim;
  s.ports = 8;
  s.planes = 4;
  s.receivers = 2;
  s.scheduler = sw::SchedulerKind::kIslip;
  s.load = 0.5;
  s.warmup_slots = 128;
  s.measure_slots = 1'024;
  s.drain_max_slots = 20'000;
  s.plan.seeded(s.seed ^ 0xfau);
  return s;
}

void expect_silent(const chaos::TrialSpec& s) {
  const chaos::TrialResult r = chaos::run_trial(s);
  EXPECT_FALSE(r.violated) << s.label() << ": " << r.first_violation;
  EXPECT_GT(r.offered, 0u);
  EXPECT_GT(r.checks, 0u);
}

}  // namespace

TEST(ChaosMonitorSilent, ModuleDeathOnSwitch) {
  auto s = chaos_spec(chaos::TrialSim::kSwitch);
  s.plan.kill_module(200, 3, 1, 300);
  expect_silent(s);
}

TEST(ChaosMonitorSilent, PermanentFiberCutOnSwitch) {
  auto s = chaos_spec(chaos::TrialSim::kSwitch);
  s.plan.cut_fiber(200, 2);        // duration 0 = permanent
  s.drain_max_slots = 4'096;       // stranded cells can never drain
  expect_silent(s);
}

TEST(ChaosMonitorSilent, BurstErrorsOnSwitch) {
  auto s = chaos_spec(chaos::TrialSim::kSwitch);
  s.plan.burst_errors(200, -1, 300, 0.2);
  expect_silent(s);
}

TEST(ChaosMonitorSilent, GrantCorruptionOnSwitch) {
  auto s = chaos_spec(chaos::TrialSim::kSwitch);
  s.plan.corrupt_grants(200, 300, 0.1);
  expect_silent(s);
}

TEST(ChaosMonitorSilent, AdapterStallOnEventSwitch) {
  auto s = chaos_spec(chaos::TrialSim::kEventSwitch);
  s.plan.stall_adapter(200, 5, 300);
  expect_silent(s);
}

TEST(ChaosMonitorSilent, PlaneFailureOnFabric) {
  auto s = chaos_spec(chaos::TrialSim::kFabric);
  s.plan.fail_plane(200, 1, 300);  // spine plane, transient only
  s.drain_max_slots = 80'000;      // faulted fabric backlog drains slowly
  expect_silent(s);
}

TEST(ChaosMonitorSilent, PlaneFailureOnMultiPlane) {
  auto s = chaos_spec(chaos::TrialSim::kMultiPlane);
  s.plan.fail_plane(200, 2, 300);
  expect_silent(s);
}

// ---- InvariantMonitor: every invariant fires on a broken toy ledger --------
//
// Each test drives the monitor directly with a scripted, deliberately
// inconsistent account of a "simulation" and asserts the matching
// invariant (and only a sensible one) trips.

namespace {

std::string first_token(const chaos::InvariantMonitor& m) {
  return chaos::violation_invariant(m.first_violation());
}

}  // namespace

TEST(ChaosMonitorFires, ConservationOnLostCell) {
  chaos::InvariantMonitor m;
  for (int i = 0; i < 5; ++i) m.send(0);
  m.deliver(0, 0);
  // 5 offered, 1 delivered, but only 3 accounted for in queues.
  m.end_slot({/*slot=*/1, /*queued=*/3, /*active_faults=*/0, 0});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(first_token(m), "conservation");
  EXPECT_EQ(m.first_violation_slot(), 1u);
}

TEST(ChaosMonitorFires, DeadlockOnStalledBacklog) {
  chaos::MonitorConfig cfg;
  cfg.deadlock_slots = 16;
  chaos::InvariantMonitor m(cfg);
  m.send(0);
  for (std::uint64_t t = 0; t < 40; ++t)
    m.end_slot({t, /*queued=*/1, /*active_faults=*/0, 0});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(first_token(m), "deadlock");
}

TEST(ChaosMonitorFires, DeadlockSuppressedByOpenFaultOrRetries) {
  chaos::MonitorConfig cfg;
  cfg.deadlock_slots = 16;
  chaos::InvariantMonitor m(cfg);
  m.send(0);
  for (std::uint64_t t = 0; t < 40; ++t)
    m.end_slot({t, 1, /*active_faults=*/1, 0});  // fault window open
  for (std::uint64_t t = 40; t < 80; ++t)
    m.end_slot({t, 1, 0, /*retries_pending=*/2});  // retries maturing
  EXPECT_TRUE(m.ok()) << m.first_violation();
}

TEST(ChaosMonitorFires, OccupancyOverCap) {
  chaos::InvariantMonitor m;
  m.check_occupancy(7, "leaf_buffer", 8, 8);   // at cap: fine
  EXPECT_TRUE(m.ok());
  m.check_occupancy(9, "leaf_buffer", 9, 8);   // over cap
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(first_token(m), "occupancy");
  EXPECT_NE(m.first_violation().find("leaf_buffer"), std::string::npos);
}

TEST(ChaosMonitorFires, CreditLedgerMismatchAndNegativePool) {
  chaos::InvariantMonitor m;
  m.check_credits(3, /*ledger=*/10, /*pool_total=*/10, /*min_pool=*/0);
  EXPECT_TRUE(m.ok());
  m.check_credits(4, 9, 10, 0);    // one credit vanished
  m.check_credits(5, 10, 10, -1);  // a pool went negative
  EXPECT_EQ(m.violations(), 2u);
  EXPECT_EQ(first_token(m), "credit");
}

TEST(ChaosMonitorFires, DuplicateDeliveryAtFinish) {
  chaos::InvariantMonitor m;
  m.send(1);
  m.send(1);
  m.deliver(1, 0);
  m.deliver(1, 0);  // duplicate completion
  m.deliver(1, 1);
  m.finish(10, /*residual_backlog=*/0);
  ASSERT_FALSE(m.ok());
  // The duplicate also skews the delivered count, so the residual
  // conservation audit trips alongside the exactly-once verdict.
  bool duplicate = false;
  for (const auto& v : m.violation_log())
    duplicate |= chaos::violation_invariant(v) == "exactly_once";
  EXPECT_TRUE(duplicate) << m.first_violation();
}

TEST(ChaosMonitorFires, ReorderedDeliveryAtFinish) {
  chaos::InvariantMonitor m;
  m.configure({}, /*allow_stranded=*/false, /*expect_drain=*/true);
  for (int i = 0; i < 2; ++i) m.send(2);
  m.deliver(2, 1);  // out of order
  m.deliver(2, 0);
  m.finish(10, 0);
  ASSERT_FALSE(m.ok());
  bool reordered = false;
  for (const auto& v : m.violation_log())
    reordered |= chaos::violation_invariant(v) == "ordering";
  EXPECT_TRUE(reordered) << m.first_violation();
}

TEST(ChaosMonitorFires, MissingAndStrandedAtFinish) {
  chaos::InvariantMonitor m;
  // The run claims to have fully drained.
  m.configure({}, /*allow_stranded=*/false, /*expect_drain=*/true);
  for (int i = 0; i < 3; ++i) m.send(4);
  m.deliver(4, 0);
  m.finish(20, /*residual_backlog=*/2);  // 2 stranded, no permanent fault
  ASSERT_FALSE(m.ok());
  bool stranded = false, missing = false;
  for (const auto& v : m.violation_log()) {
    stranded |= chaos::violation_invariant(v) == "liveness(final)";
    missing |= chaos::violation_invariant(v) == "exactly_once";
  }
  EXPECT_TRUE(stranded);
  EXPECT_TRUE(missing);
}

TEST(ChaosMonitorFires, AllowStrandedAcceptsPermanentFaultResidue) {
  chaos::InvariantMonitor m;
  // The plan declared a permanent fault.
  m.configure({}, /*allow_stranded=*/true, /*expect_drain=*/true);
  for (int i = 0; i < 3; ++i) m.send(4);
  m.deliver(4, 0);
  m.finish(20, 2);  // same residue as above, now legitimate
  EXPECT_TRUE(m.ok()) << m.first_violation();
}

TEST(ChaosMonitorFires, FinishIsIdempotent) {
  chaos::InvariantMonitor m;
  m.configure({}, /*allow_stranded=*/false, /*expect_drain=*/true);
  m.send(0);
  m.finish(5, 1);  // stranded: one violation
  const std::uint64_t first = m.violations();
  m.finish(5, 1);  // double finalize must not double-count
  EXPECT_EQ(m.violations(), first);
}

TEST(ChaosMonitorFires, DefectOnlyCorruptsInsideFaultWindows) {
  chaos::MonitorConfig cfg;
  cfg.defect = chaos::Defect::kDropDeliveryDuringFault;
  cfg.defect_period = 1;  // every opportunity
  chaos::InvariantMonitor m(cfg);
  // No fault open: the armed defect must stay dormant.
  m.send(0);
  m.end_slot({0, 1, /*active_faults=*/0, 0});
  m.deliver(0, 0);
  m.end_slot({1, 0, 0, 0});
  EXPECT_TRUE(m.ok()) << m.first_violation();
  // Fault window opens: the dropped delivery now breaks conservation.
  m.send(0);
  m.end_slot({2, 1, /*active_faults=*/1, 0});
  m.deliver(0, 1);  // silently swallowed by the defect
  m.end_slot({3, 0, 1, 0});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(first_token(m), "conservation");
}

}  // namespace
}  // namespace osmosis
