// Tests for the topology x flow-control simulator (DESIGN.md §15):
// lossless exactly-once in-order delivery across the full scenario
// matrix, wormhole-VC deadlock freedom under fuzzed loads, freeze-and-
// repair fault semantics, the fault-kind contract, and kill-safe
// checkpoint/resume with worms mid-flight in VC lanes.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/ckpt/ckpt.hpp"
#include "src/sim/traffic.hpp"
#include "src/topo/topo_sim.hpp"

namespace osmosis::topo {
namespace {

constexpr TopoKind kAllKinds[] = {TopoKind::kFatTree, TopoKind::kClos,
                                  TopoKind::kOmega, TopoKind::kBanyan,
                                  TopoKind::kBenes};

TopoSimConfig base_config(TopoKind kind, FcKind fc, int hosts = 32) {
  TopoSimConfig cfg;
  cfg.topology = kind;
  cfg.hosts = hosts;
  cfg.fc.kind = fc;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 1'500;
  cfg.drain_max_slots = 50'000;
  return cfg;
}

void expect_clean(const TopoSimResult& r, const std::string& what) {
  EXPECT_TRUE(r.exactly_once_in_order) << what;
  EXPECT_EQ(r.buffer_overflows, 0u) << what;
  EXPECT_EQ(r.out_of_order, 0u) << what;
  EXPECT_EQ(r.invariant_violations, 0u) << what << ": "
                                        << r.first_violation;
  EXPECT_EQ(r.injected_total, r.delivered_total) << what;
}

TEST(TopoSim, EveryTopologyTimesFlowControlIsLosslessInOrder) {
  for (TopoKind kind : kAllKinds) {
    for (FcKind fc :
         {FcKind::kCredit, FcKind::kRelayed, FcKind::kWormholeVc}) {
      const TopoSimConfig cfg = base_config(kind, fc);
      const TopoSimResult r = run_topo_uniform(cfg, 0.4, 0x715);
      expect_clean(r, r.topology + "/" + r.flow_control);
      EXPECT_GT(r.delivered, 0u) << r.topology;
      EXPECT_GE(r.mean_hops, static_cast<double>(r.stages) - 0.5)
          << r.topology;
    }
  }
}

TEST(TopoSim, RelayedCreditsBeatCableFlightCredits) {
  // §IV.B: with buffers too shallow for the credit round trip, relayed
  // FC (credits on the control path) sustains more than credit FC.
  TopoSimConfig credit = base_config(TopoKind::kFatTree, FcKind::kCredit);
  credit.buffer_cells = 2;
  credit.measure_slots = 4'000;
  TopoSimConfig relayed = credit;
  relayed.fc.kind = FcKind::kRelayed;
  const TopoSimResult rc = run_topo_uniform(credit, 0.9, 0x44);
  const TopoSimResult rr = run_topo_uniform(relayed, 0.9, 0x44);
  expect_clean(rc, "credit");
  expect_clean(rr, "relayed");
  EXPECT_GT(rr.throughput, rc.throughput);
}

TEST(TopoSim, WormholeVcDeadlockFreeUnderFuzzedLoads) {
  // The acyclic-route + lane-holding design must never wedge: every
  // fuzzed run terminates (drain completes) with conservation intact,
  // even above saturation.
  sim::Rng rng(0xF022);
  for (int trial = 0; trial < 10; ++trial) {
    const TopoKind kind = kAllKinds[rng.uniform_int(5)];
    TopoSimConfig cfg = base_config(kind, FcKind::kWormholeVc);
    cfg.fc.lanes = 1 + static_cast<int>(rng.uniform_int(3));
    cfg.fc.lane_flits = 2 + static_cast<int>(rng.uniform_int(7));
    cfg.measure_slots = 1'000;
    const double load = 0.1 + 0.15 * static_cast<double>(rng.uniform_int(5));
    const TopoSimResult r = run_topo_uniform(cfg, load, 0x900D + trial);
    expect_clean(r, r.topology + " lanes=" + std::to_string(cfg.fc.lanes) +
                        " load=" + std::to_string(load));
  }
}

TEST(TopoSim, TransientFaultsFreezeAndRepairLosslessly) {
  for (FcKind fc : {FcKind::kCredit, FcKind::kWormholeVc}) {
    TopoSimConfig cfg = base_config(TopoKind::kFatTree, fc);
    faults::FaultEvent spine;
    spine.kind = faults::FaultKind::kPlaneFailure;
    spine.a = 0;
    spine.at_slot = 400;
    spine.duration_slots = 300;
    cfg.fault_plan.add(spine);
    faults::FaultEvent stall;
    stall.kind = faults::FaultKind::kAdapterStall;
    stall.a = 7;
    stall.at_slot = 600;
    stall.duration_slots = 200;
    cfg.fault_plan.add(stall);
    cfg.fault_plan.seeded(1);
    const TopoSimResult r = run_topo_uniform(cfg, 0.3, 0xFA17);
    expect_clean(r, r.flow_control);
    EXPECT_EQ(r.faults_injected, 2u) << r.flow_control;
    EXPECT_EQ(r.faults_repaired, 2u) << r.flow_control;
  }
}

TEST(TopoSim, WormholeArbitrationIsPinned) {
  // Exactness pin for the wormhole VC allocator: lane counts the matrix
  // above does not cover, a fat tree whose switches have 72 input lanes
  // (lane masks span two words) and a transient top-stage freeze;
  // expect_clean also requires zero reordering. The values were computed
  // with an allocator that probed every (output, input lane) pair.
  struct Pin {
    const char* what;
    TopoKind kind;
    int hosts;
    int lanes;
    bool freeze;
    double load;
    std::uint64_t delivered;
    double mean_delay;
    double p99_delay;
  };
  const Pin pins[] = {
      {"fat tree, 1 lane", TopoKind::kFatTree, 32, 1, false, 0.4, 2224,
       223.38848920863313, 548.17032258064421},
      {"fat tree, 3 lanes", TopoKind::kFatTree, 32, 3, false, 0.45, 3148,
       114.46759847522242, 337.25999999999999},
      {"fat tree, 4 lanes", TopoKind::kFatTree, 32, 4, false, 0.45, 2534,
       215.47790055248637, 501.32999999999993},
      {"clos, 3 lanes", TopoKind::kClos, 32, 3, false, 0.4, 2753,
       122.82964039229934, 365.2349999999999},
      {"omega, 4 lanes", TopoKind::kOmega, 32, 4, false, 0.3, 2433,
       28.932182490752162, 57.835000000000036},
      {"benes, 1 lane", TopoKind::kBenes, 32, 1, false, 0.3, 1663,
       248.81298857486431, 621.21846153846127},
      {"fat tree 288 hosts, 3 lanes", TopoKind::kFatTree, 288, 3, false, 0.4,
       18340, 248.41782988004243, 616.60174927113678},
      {"fat tree, top-stage freeze", TopoKind::kFatTree, 32, 2, true, 0.35,
       1486, 374.03095558546465, 720.0},
  };
  for (const Pin& p : pins) {
    TopoSimConfig cfg = base_config(p.kind, FcKind::kWormholeVc, p.hosts);
    cfg.fc.lanes = p.lanes;
    cfg.measure_slots = 1'000;
    if (p.freeze) {
      faults::FaultEvent spine;
      spine.kind = faults::FaultKind::kPlaneFailure;
      spine.a = 1;
      spine.at_slot = 300;
      spine.duration_slots = 400;
      cfg.fault_plan.add(spine);
      cfg.fault_plan.seeded(1);
    }
    const TopoSimResult r = run_topo_uniform(cfg, p.load, 0x91A);
    expect_clean(r, p.what);
    EXPECT_EQ(r.delivered, p.delivered) << p.what;
    EXPECT_EQ(r.mean_delay_slots, p.mean_delay) << p.what;
    EXPECT_EQ(r.p99_delay_slots, p.p99_delay) << p.what;
  }
}

TEST(TopoSimDeath, PermanentMidRunFaultIsRejected) {
  TopoSimConfig cfg = base_config(TopoKind::kFatTree, FcKind::kCredit);
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kPlaneFailure;
  e.a = 0;
  e.at_slot = 400;
  e.duration_slots = 0;  // permanent
  cfg.fault_plan.add(e);
  cfg.fault_plan.seeded(1);
  EXPECT_DEATH(TopoSim(cfg, sim::make_uniform(cfg.hosts, 0.3, 1)),
               "construction-time failed_switches");
}

TEST(TopoSimDeath, TrunkCableShorterThanOneSlotIsRejected) {
  // A cell lands at its launch slot plus the cable's flight time, so a
  // flight of 0 or less would land it at or before its launch.
  for (const int slots : {0, -2}) {
    TopoSimConfig cfg = leaf_spine_config(8);
    cfg.trunk_cable_slots = slots;
    EXPECT_DEATH(TopoSim(cfg, sim::make_uniform(cfg.hosts, 0.3, 1)),
                 "trunk_cable_slots must be >= 1");
  }
}

TEST(TopoSim, StrandedCellsFailTheExactlyOnceVerdict) {
  // A drain far too short to empty a loaded fabric: the end-of-run audit
  // must report the cells still queued, not call the run exactly-once.
  TopoSimConfig cfg = base_config(TopoKind::kFatTree, FcKind::kCredit);
  cfg.drain_max_slots = 3;
  const TopoSimResult r = run_topo_uniform(cfg, 0.95, 0x57A);
  EXPECT_GT(r.injected_total, r.delivered_total);
  EXPECT_FALSE(r.exactly_once_in_order);
  EXPECT_EQ(r.invariant_violations, 2u);
  EXPECT_NE(r.first_violation.find("liveness(final): "), std::string::npos)
      << r.first_violation;
  EXPECT_NE(r.first_violation.find(" cells stranded"), std::string::npos)
      << r.first_violation;
}

TEST(TopoSimDeath, DegradedModeNeedsTheLeafSpineTree) {
  // Adaptive routing and admission exist only for the two-level fat
  // tree with a cell flow-control kind.
  TopoSimConfig clos = base_config(TopoKind::kClos, FcKind::kCredit);
  clos.adaptive_routing = true;
  EXPECT_DEATH(TopoSim(clos, sim::make_uniform(clos.hosts, 0.3, 1)),
               "two-level fat tree");
  TopoSimConfig deep = base_config(TopoKind::kFatTree, FcKind::kCredit, 128);
  deep.levels = 3;
  deep.admission = true;
  EXPECT_DEATH(TopoSim(deep, sim::make_uniform(deep.hosts, 0.3, 1)),
               "two-level fat tree");
  TopoSimConfig worm = base_config(TopoKind::kFatTree, FcKind::kWormholeVc);
  worm.adaptive_routing = true;
  EXPECT_DEATH(TopoSim(worm, sim::make_uniform(worm.hosts, 0.3, 1)),
               "two-level fat tree");
  worm.adaptive_routing = false;
  worm.telemetry.enabled = true;
  EXPECT_DEATH(TopoSim(worm, sim::make_uniform(worm.hosts, 0.3, 1)),
               "telemetry needs a cell");
}

TEST(TopoSimDeath, MinRejectsConstructionTimeFailures) {
  TopoSimConfig cfg = base_config(TopoKind::kBenes, FcKind::kCredit);
  cfg.failed_switches = {0};
  EXPECT_DEATH(TopoSim(cfg, sim::make_uniform(cfg.hosts, 0.3, 1)),
               "unique path");
}

TEST(TopoSim, RoutesAroundFailedSwitchesDegradedButClean) {
  // A dead fat-tree top (global id 9 of the 32-host tree) and a dead
  // Clos middle (global id 10): reduced capacity, same guarantees.
  for (const auto& [kind, id] :
       {std::pair{TopoKind::kFatTree, 9}, std::pair{TopoKind::kClos, 10}}) {
    TopoSimConfig cfg = base_config(kind, FcKind::kCredit);
    cfg.failed_switches = {id};
    const TopoSimResult r = run_topo_uniform(cfg, 0.3, 0xDEAD);
    expect_clean(r, r.topology + " failed_sw");
  }
}

TEST(TopoSim, CheckpointResumeWithWormsInFlightIsByteIdentical) {
  // Snapshot mid-measurement with flits parked in VC lanes, restore
  // into a fresh sim, and require the continued runs to agree exactly
  // — field-for-field results and byte-identical final state.
  TopoSimConfig cfg = base_config(TopoKind::kBenes, FcKind::kWormholeVc);
  cfg.measure_slots = 2'000;
  const double packet_p = 0.5 / cfg.fc.flits_per_packet;
  TopoSim a(cfg, sim::make_uniform(cfg.hosts, packet_p, 0x5EED));
  for (int i = 0; i < 700; ++i) ASSERT_TRUE(a.advance_slot());
  // Worms must actually be in flight at the snapshot.
  ASSERT_GT(a.monitor().offered_cells(), a.monitor().delivered_cells());

  ckpt::Writer snap;
  a.save_state(snap);
  TopoSim b(cfg, sim::make_uniform(cfg.hosts, packet_p, 0x5EED));
  b.load_state(ckpt::Reader::from_bytes(snap.serialize()));

  while (a.advance_slot()) {
  }
  while (b.advance_slot()) {
  }
  ckpt::Writer fa;
  a.save_state(fa);
  ckpt::Writer fb;
  b.save_state(fb);
  EXPECT_EQ(fa.serialize(), fb.serialize());

  const TopoSimResult ra = a.finalize();
  const TopoSimResult rb = b.finalize();
  expect_clean(ra, "original");
  expect_clean(rb, "resumed");
  EXPECT_EQ(ra.injected_total, rb.injected_total);
  EXPECT_EQ(ra.delivered_total, rb.delivered_total);
  EXPECT_EQ(ra.throughput, rb.throughput);
  EXPECT_EQ(ra.mean_delay_slots, rb.mean_delay_slots);
  EXPECT_EQ(ra.drained_slots, rb.drained_slots);
}

TEST(TopoSim, CheckpointResumeWhileAFreezeHoldsWormsIsByteIdentical) {
  // The freeze row of WormholeArbitrationIsPinned: top switch 1 of the
  // 32-host fat tree is frozen over slots 300-699, so worms headed
  // through it wait in the leaves' lanes. Snapshot mid-freeze, restore
  // into a fresh sim, and require the same results and final state.
  TopoSimConfig cfg = base_config(TopoKind::kFatTree, FcKind::kWormholeVc);
  cfg.fc.lanes = 2;
  cfg.measure_slots = 1'000;
  faults::FaultEvent spine;
  spine.kind = faults::FaultKind::kPlaneFailure;
  spine.a = 1;
  spine.at_slot = 300;
  spine.duration_slots = 400;
  cfg.fault_plan.add(spine);
  cfg.fault_plan.seeded(1);
  const double packet_p = 0.35 / cfg.fc.flits_per_packet;
  TopoSim a(cfg, sim::make_uniform(cfg.hosts, packet_p, 0x91A));
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(a.advance_slot());
  ASSERT_GT(a.monitor().offered_cells(), a.monitor().delivered_cells());

  ckpt::Writer snap;
  a.save_state(snap);
  TopoSim b(cfg, sim::make_uniform(cfg.hosts, packet_p, 0x91A));
  b.load_state(ckpt::Reader::from_bytes(snap.serialize()));

  while (a.advance_slot()) {
  }
  while (b.advance_slot()) {
  }
  ckpt::Writer fa, fb;
  a.save_state(fa);
  b.save_state(fb);
  EXPECT_EQ(fa.serialize(), fb.serialize());

  const TopoSimResult ra = a.finalize();
  const TopoSimResult rb = b.finalize();
  expect_clean(ra, "original");
  expect_clean(rb, "resumed");
  // The pinned row's values, reached from the snapshot too.
  EXPECT_EQ(ra.delivered, 1486u);
  EXPECT_EQ(rb.delivered, ra.delivered);
  EXPECT_EQ(rb.mean_delay_slots, ra.mean_delay_slots);
  EXPECT_EQ(rb.p99_delay_slots, ra.p99_delay_slots);
  EXPECT_EQ(rb.throughput, ra.throughput);
  EXPECT_EQ(rb.faults_repaired, 1u);
  EXPECT_EQ(rb.drained_slots, ra.drained_slots);
}

TEST(TopoSim, CableRingsOfAnyFlightTimeAreLosslessAndResumable) {
  // The cable and credit rings take (longest flight + 1) buckets: 2 for
  // a one-slot trunk, 8 for a seven-slot one. Every flow-control kind
  // stays lossless and in order, and a mid-run snapshot resumes to the
  // same final state.
  for (const int trunk : {1, 7}) {
    for (const FcKind fc :
         {FcKind::kCredit, FcKind::kRelayed, FcKind::kWormholeVc}) {
      TopoSimConfig cfg = base_config(TopoKind::kFatTree, fc);
      cfg.trunk_cable_slots = trunk;
      const std::string what =
          to_string(fc) + std::string(" trunk ") + std::to_string(trunk);
      const double p = fc == FcKind::kWormholeVc
                           ? 0.2 / cfg.fc.flits_per_packet
                           : 0.5;
      TopoSim a(cfg, sim::make_uniform(cfg.hosts, p, 0x71));
      for (int i = 0; i < 500; ++i) ASSERT_TRUE(a.advance_slot()) << what;
      ckpt::Writer snap;
      a.save_state(snap);
      TopoSim b(cfg, sim::make_uniform(cfg.hosts, p, 0x71));
      b.load_state(ckpt::Reader::from_bytes(snap.serialize()));
      while (a.advance_slot()) {
      }
      while (b.advance_slot()) {
      }
      ckpt::Writer fa, fb;
      a.save_state(fa);
      b.save_state(fb);
      EXPECT_EQ(fa.serialize(), fb.serialize()) << what;
      const TopoSimResult r = a.finalize();
      expect_clean(r, what);
      EXPECT_GT(r.delivered, 0u) << what;
    }
  }
}

TEST(TopoSim, CheckpointRejectsMismatchedStructure) {
  const auto expect_rejected = [](const TopoSimConfig& from,
                                  const TopoSimConfig& into) {
    TopoSim a(from, sim::make_uniform(from.hosts, 0.3, 1));
    for (int i = 0; i < 300; ++i) ASSERT_TRUE(a.advance_slot());
    ckpt::Writer snap;
    a.save_state(snap);
    TopoSim b(into, sim::make_uniform(into.hosts, 0.3, 1));
    EXPECT_THROW(b.load_state(ckpt::Reader::from_bytes(snap.serialize())),
                 ckpt::Error);
  };
  // A different topology has different per-switch vector shapes.
  expect_rejected(base_config(TopoKind::kOmega, FcKind::kCredit),
                  base_config(TopoKind::kBenes, FcKind::kCredit));
  // 128 hosts at L=2 (24 radix-16 switches) vs L=3 (80 radix-8
  // switches): the host vectors match, the switch graph does not.
  TopoSimConfig two = base_config(TopoKind::kFatTree, FcKind::kCredit, 128);
  TopoSimConfig three = two;
  three.levels = 3;
  expect_rejected(two, three);
  expect_rejected(three, two);
}

// Resident set size from /proc/self/status, in MB; -1 where the file
// or the field is missing.
double resident_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return -1.0;
}

TEST(TopoSim, PaperScaleConstructionStaysUnder80MB) {
  // The Table 1 machine: 2048 hosts on 96 64-port switches, credit FC.
  // Its 393,216 VOQs share one FIFO pool per switch and its cables and
  // credits sit on timing wheels, where one container per queue took
  // about 300 MB.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory inflates the resident set";
#endif
  const double before = resident_mb();
  if (before < 0.0) GTEST_SKIP() << "no /proc/self/status VmRSS";
  const TopoSimConfig cfg = leaf_spine_config(64);
  TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.5, 1));
  const double grown = resident_mb() - before;
  RecordProperty("construct_rss_mb", std::to_string(grown));
  EXPECT_LT(grown, 80.0) << "constructor grew the resident set by " << grown
                         << " MB";
  ASSERT_TRUE(sim.advance_slot());  // and the result runs
}

}  // namespace
}  // namespace osmosis::topo
