// Tests for the host layer: segmentation, HCA latency budget, message
// workloads, admission control, and message workloads posted through
// api::ServeSim's manual API onto the switch (per-operation completion,
// collectives, per-class latency).

#include <gtest/gtest.h>

#include <vector>

#include "src/api/serve_sim.hpp"
#include "src/host/admission.hpp"
#include "src/host/hca.hpp"
#include "src/host/message.hpp"
#include "src/host/patterns.hpp"
#include "src/phy/guard_time.hpp"

namespace osmosis::host {
namespace {

// ---- segmentation -------------------------------------------------------------

TEST(Segmenter, CellCountRounding) {
  Segmenter seg(195.0);
  EXPECT_EQ(seg.cells_for(1.0), 1);
  EXPECT_EQ(seg.cells_for(195.0), 1);
  EXPECT_EQ(seg.cells_for(196.0), 2);
  EXPECT_EQ(seg.cells_for(1950.0), 10);
  EXPECT_EQ(seg.cells_for(0.0), 1);  // header-only message still ships
}

TEST(Segmenter, EmitsAllCellsInOrder) {
  Segmenter seg(100.0);
  Message m;
  m.src = 0;
  m.dst = 3;
  m.id = 42;
  m.bytes = 450.0;  // 5 cells
  seg.post(m);
  for (int i = 0; i < 5; ++i) {
    std::uint64_t id;
    int dst;
    bool control, last;
    ASSERT_TRUE(seg.next_cell(id, dst, control, last));
    EXPECT_EQ(id, 42u);
    EXPECT_EQ(dst, 3);
    EXPECT_FALSE(control);
    EXPECT_EQ(last, i == 4);
  }
  std::uint64_t id;
  int dst;
  bool control, last;
  EXPECT_FALSE(seg.next_cell(id, dst, control, last));
  EXPECT_TRUE(seg.idle());
}

TEST(Segmenter, ControlMessagesPreemptDataBetweenCells) {
  Segmenter seg(100.0);
  Message data;
  data.src = 0;
  data.dst = 1;
  data.id = 1;
  data.bytes = 300.0;  // 3 cells
  seg.post(data);
  std::uint64_t id;
  int dst;
  bool control, last;
  ASSERT_TRUE(seg.next_cell(id, dst, control, last));
  EXPECT_EQ(id, 1u);  // data cell 1 goes out

  Message ctrl;
  ctrl.src = 0;
  ctrl.dst = 2;
  ctrl.id = 2;
  ctrl.bytes = 50.0;
  ctrl.control = true;
  seg.post(ctrl);
  ASSERT_TRUE(seg.next_cell(id, dst, control, last));
  EXPECT_EQ(id, 2u);  // control preempts the remaining data cells
  EXPECT_TRUE(control);
  EXPECT_TRUE(last);
  ASSERT_TRUE(seg.next_cell(id, dst, control, last));
  EXPECT_EQ(id, 1u);  // data resumes
}

// ---- HCA budget ----------------------------------------------------------------

TEST(Hca, AppToAppBudgetComposition) {
  HcaParams hca;
  const auto b = app_to_app_budget(hca, 150.0, 245.0);
  ASSERT_EQ(b.items.size(), 6u);
  EXPECT_DOUBLE_EQ(b.total_ns(),
                   2 * 250.0 + 2 * 120.0 + 150.0 + 245.0);
  // The paper's contemporary target: ~1 us application to application.
  EXPECT_LT(b.total_ns(), 1'200.0);
}

// ---- workloads ------------------------------------------------------------------

TEST(Workloads, RandomMessagesNeverSelfAddressed) {
  RandomMessages w(8, 1.0, 0.3, 64.0, 2048.0, sim::Rng(1));
  std::vector<Message> out;
  for (int t = 0; t < 200; ++t) {
    for (int h = 0; h < 8; ++h) {
      out.clear();
      w.poll(h, static_cast<std::uint64_t>(t), out);
      for (const auto& m : out) {
        EXPECT_NE(m.dst, h);
        EXPECT_GE(m.dst, 0);
        EXPECT_LT(m.dst, 8);
        EXPECT_GT(m.id, 0u);
      }
    }
  }
}

TEST(Workloads, AllToAllPostsExactlyOnce) {
  AllToAll w(6, 512.0);
  std::vector<Message> out;
  int total = 0;
  for (int h = 0; h < 6; ++h) {
    out.clear();
    w.poll(h, 0, out);
    EXPECT_EQ(out.size(), 5u);
    total += static_cast<int>(out.size());
    out.clear();
    w.poll(h, 1, out);
    EXPECT_TRUE(out.empty());
  }
  EXPECT_EQ(total, 30);  // N(N-1)
}

TEST(Workloads, RingIsPermutation) {
  RingExchange w(5, 100.0);
  std::vector<bool> dst_seen(5, false);
  for (int h = 0; h < 5; ++h) {
    std::vector<Message> out;
    w.poll(h, 0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(dst_seen[static_cast<std::size_t>(out[0].dst)]);
    dst_seen[static_cast<std::size_t>(out[0].dst)] = true;
  }
}

// ---- message workloads over ServeSim ------------------------------------------

api::ServeSimConfig base_config(int hosts) {
  api::ServeSimConfig cfg;
  cfg.sw.ports = hosts;
  cfg.sw.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sw.sched.receivers = 2;
  cfg.sw.warmup_slots = 0;
  cfg.sw.measure_slots = 20'000;
  cfg.openloop.tenants = 2;  // data messages on tenant 0, control on 1
  return cfg;
}

// Sends every message the workload's hosts post this slot, control
// messages on tenant 1 and data on tenant 0, then runs the slot. Returns
// false once the run's slots are spent.
bool step(api::ServeSim& sim, MessageWorkload& w,
          std::vector<Message>& scratch) {
  for (int h = 0; h < w.hosts(); ++h) {
    scratch.clear();
    w.poll(h, sim.current_slot(), scratch);
    for (const Message& m : scratch)
      sim.send_tagged(m.src, m.dst, 0, m.bytes, 0, m.control ? 1 : 0,
                      m.control);
  }
  return sim.advance_slot();
}

api::ServeSimResult run_all_slots(api::ServeSim& sim, MessageWorkload& w) {
  std::vector<Message> scratch;
  while (step(sim, w, scratch)) {
  }
  return sim.finalize();
}

// Steps a collective until no operation is in flight and returns the
// slot of its last delivery.
std::uint64_t run_collective(api::ServeSim& sim, MessageWorkload& w) {
  std::vector<Message> scratch;
  do {
    if (!step(sim, w, scratch)) {
      ADD_FAILURE() << "collective still in flight when the run ended";
      break;
    }
  } while (sim.ops_in_flight() > 0);
  return sim.current_slot() - 1;
}

TEST(Reassembler, CompletesOnLastCell) {
  // A 3-cell send stays in flight until its last cell is delivered, and
  // its tx completion carries that cell's delivery slot.
  api::ServeSim sim(base_config(4));
  const double bytes = 500.0;
  ASSERT_EQ(Segmenter(phy::demonstrator_cell_format().user_bytes())
                .cells_for(bytes),
            3);
  const std::uint64_t op = sim.send_tagged(0, 1, 0, bytes);
  // The switch counts every delivered cell (warmup is 0).
  const auto& cells = sim.switch_sim().delay_histogram();
  while (cells.count() < 3) {
    EXPECT_EQ(sim.ops_in_flight(), 1u);
    ASSERT_TRUE(sim.advance_slot());
  }
  EXPECT_EQ(sim.ops_in_flight(), 0u);
  api::Completion c;
  ASSERT_TRUE(sim.tx_cq(0).pop(c));
  EXPECT_EQ(c.op_id, op);
  EXPECT_EQ(c.slot, sim.current_slot() - 1);  // the last cell's slot
}

TEST(Reassembler, RejectsUnknownAndDuplicate) {
  // Cells are counted per operation from the send's own payload, so the
  // only malformed message left to reject is an empty one.
  api::ServeSim sim(base_config(4));
  EXPECT_DEATH(sim.send_tagged(0, 1, 0, 0.0), "positive payload");
}

TEST(MessageSim, AllToAllCompletesAndIsAccounted) {
  api::ServeSim sim(base_config(8));
  AllToAll w(8, 1024.0);
  const std::uint64_t done = run_collective(sim, w);
  const auto r = sim.finalize();
  EXPECT_EQ(r.accepted, 56u);
  EXPECT_EQ(r.delivered, 56u);
  EXPECT_EQ(r.cell_level.out_of_order, 0u);
  // 1024 B = 6 cells of ~195 B; 7 messages per source; the collective
  // cannot finish faster than 42 injection slots per host.
  EXPECT_GE(done, 42u);
  EXPECT_LT(done, 200u);
}

TEST(MessageSim, RingExchangeNearOptimal) {
  api::ServeSim sim(base_config(16));
  const double bytes = 1950.0;  // 10 cells
  RingExchange w(16, bytes);
  const std::uint64_t done = run_collective(sim, w);
  // A permutation has no contention: completion ~ cells + pipeline.
  EXPECT_LE(done, 10u + 8u);
}

TEST(MessageSim, ControlMessagesFasterThanDataUnderLoad) {
  auto cfg = base_config(16);
  cfg.sw.warmup_slots = 2'000;
  cfg.sw.measure_slots = 28'000;
  api::ServeSim sim(cfg);
  // 0.05 msgs/slot/host x ~11 cells mean -> ~55 % cell load.
  RandomMessages w(16, 0.05, 0.3, 64.0, 2048.0, sim::Rng(3));
  const auto r = run_all_slots(sim, w);
  EXPECT_GT(r.delivered, 10'000u);
  // Control messages (tenant 1) are single-cell and strictly prioritized.
  const auto s = sim.serving_report();
  EXPECT_LT(s.tenants[1].latency.mean, s.tenants[0].latency.mean);
  EXPECT_EQ(r.cell_level.out_of_order, 0u);
}

TEST(MessageSim, SmallMessageAppLatencyNearMicrosecond) {
  // §III: "a contemporary target is 1 us application to application".
  auto cfg = base_config(64);
  cfg.sw.measure_slots = 10'000;
  api::ServeSim sim(cfg);
  RandomMessages w(64, 0.02, 1.0, 64.0, 64.0, sim::Rng(5));
  const auto r = run_all_slots(sim, w);
  EXPECT_GT(r.delivered, 10'000u);
  // Every message is a control message.
  const double app_ns =
      app_to_app_budget(HcaParams{},
                        r.mean_latency *
                            phy::demonstrator_cell_format().cycle_ns(),
                        2.0 * kCableOneWayNs)
          .total_ns();
  EXPECT_LT(app_ns, 1'300.0);
  EXPECT_GT(app_ns, 700.0);
}

// ---- degraded-mode admission control ---------------------------------------

TEST(Admission, FullCapacityAdmitsEverything) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  AdmissionControl ac(cfg, 4);
  ac.set_capacity(4, 4);
  for (int slot = 0; slot < 100; ++slot) {
    ac.begin_slot();
    for (int src = 0; src < 4; ++src) EXPECT_TRUE(ac.admit(src));
  }
  EXPECT_EQ(ac.shed_total(), 0u);
}

TEST(Admission, DisabledControlNeverSheds) {
  AdmissionControl ac(AdmissionConfig{}, 4);  // enabled = false
  ac.set_capacity(1, 4);
  for (int slot = 0; slot < 50; ++slot) {
    ac.begin_slot();
    for (int src = 0; src < 4; ++src) EXPECT_TRUE(ac.admit(src));
  }
  EXPECT_EQ(ac.shed_total(), 0u);
}

TEST(Admission, ReducedCapacityShedsTheOverflowFairly) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.margin_pct = 100;
  cfg.burst_cells = 1;
  AdmissionControl ac(cfg, 8);
  ac.set_capacity(2, 4);  // half capacity: admit ~1 of every 2 cells
  const int slots = 1'000;
  std::uint64_t admitted = 0;
  for (int slot = 0; slot < slots; ++slot) {
    ac.begin_slot();
    for (int src = 0; src < 8; ++src)
      if (ac.admit(src)) ++admitted;
  }
  const std::uint64_t offered = 8ull * slots;
  EXPECT_EQ(admitted + ac.shed_total(), offered);
  EXPECT_NEAR(static_cast<double>(admitted), offered / 2.0, offered * 0.01);
  // Identical buckets, identical arrivals: the shed spread across
  // sources must be tight (fairness).
  EXPECT_LE(ac.shed_max() - ac.shed_min(), 2u);
}

TEST(Admission, RestoredCapacityStopsShedding) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  AdmissionControl ac(cfg, 2);
  ac.set_capacity(1, 4);
  for (int slot = 0; slot < 100; ++slot) {
    ac.begin_slot();
    ac.admit(0);
    ac.admit(1);
  }
  const std::uint64_t shed_degraded = ac.shed_total();
  EXPECT_GT(shed_degraded, 0u);
  ac.set_capacity(4, 4);  // repaired: disengage
  for (int slot = 0; slot < 100; ++slot) {
    ac.begin_slot();
    EXPECT_TRUE(ac.admit(0));
    EXPECT_TRUE(ac.admit(1));
  }
  EXPECT_EQ(ac.shed_total(), shed_degraded);
}

TEST(MessageSim, RejectsWorkloadPortMismatch) {
  auto post_wide_workload = [] {
    api::ServeSim sim(base_config(8));
    AllToAll w(16, 100.0);
    std::vector<Message> scratch;
    step(sim, w, scratch);
  };
  EXPECT_DEATH(post_wide_workload(), "bad send ports");
}

}  // namespace
}  // namespace osmosis::host
