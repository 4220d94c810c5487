// Tests for the §VI.D comparison architectures: output-queued reference,
// load-balanced Birkhoff-von-Neumann, Data Vortex, burst switching.

#include <gtest/gtest.h>

#include "src/baseline/birkhoff.hpp"
#include "src/baseline/burst_switch.hpp"
#include "src/baseline/cioq.hpp"
#include "src/baseline/data_vortex.hpp"
#include "src/baseline/oq_switch.hpp"

namespace osmosis::baseline {
namespace {

// ---- output-queued reference ---------------------------------------------------

TEST(OqSwitch, ThroughputEqualsLoad) {
  for (double load : {0.3, 0.7, 0.95}) {
    const auto r = run_oq_uniform(16, load, 1);
    EXPECT_NEAR(r.throughput, load, 0.02);
  }
}

TEST(OqSwitch, AlwaysInOrder) {
  const auto r = run_oq_uniform(16, 0.95, 3);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_FALSE(r.work_conserving_violated);
}

TEST(OqSwitch, DelayIsMm1LikeFloor) {
  // Uniform iid at 50 %: the OQ switch behaves like N independent
  // queues; mean delay stays small and grows toward saturation.
  const auto lo = run_oq_uniform(16, 0.5, 5);
  const auto hi = run_oq_uniform(16, 0.95, 5);
  EXPECT_LT(lo.mean_delay, 3.0);
  EXPECT_GT(hi.mean_delay, lo.mean_delay * 2.0);
}

// ---- CIOQ speedup / work conservation ([11]) ---------------------------------------

CioqConfig cioq_config(int speedup, int buffers = 8) {
  CioqConfig cfg;
  cfg.ports = 16;
  cfg.speedup = speedup;
  cfg.output_buffer_cells = buffers;
  cfg.measure_slots = 15'000;
  return cfg;
}

TEST(Cioq, SpeedupOneViolatesWorkConservation) {
  // An input-queued switch (S = 1) routinely idles outputs that have
  // cells parked behind busy inputs.
  const auto r = run_cioq_uniform(cioq_config(1), 0.9, 33);
  EXPECT_GT(r.work_conservation_violation_rate, 0.02);
}

TEST(Cioq, SpeedupTwoNearlyWorkConserving) {
  // [11]: S = 2 with adequate output buffers makes CIOQ effectively
  // work-conserving.
  const auto s1 = run_cioq_uniform(cioq_config(1), 0.9, 35);
  const auto s2 = run_cioq_uniform(cioq_config(2), 0.9, 35);
  EXPECT_LT(s2.work_conservation_violation_rate,
            s1.work_conservation_violation_rate / 5.0);
  EXPECT_LT(s2.work_conservation_violation_rate, 0.01);
}

TEST(Cioq, TinyOutputBuffersReintroduceViolations) {
  // The "limited output buffers" half of [11]: with S = 2 but a 1-cell
  // output buffer, backpressure stalls the crossbar again.
  const auto roomy = run_cioq_uniform(cioq_config(2, 8), 0.9, 37);
  const auto tiny = run_cioq_uniform(cioq_config(2, 1), 0.9, 37);
  EXPECT_GT(tiny.work_conservation_violation_rate,
            roomy.work_conservation_violation_rate);
}

TEST(Cioq, OutputBuffersRespectLimit) {
  const auto r = run_cioq_uniform(cioq_config(3, 4), 0.95, 39);
  EXPECT_LE(r.max_output_occupancy, 4);
  EXPECT_EQ(r.out_of_order, 0u);
}

TEST(Cioq, ThroughputMatchesLoad) {
  const auto r = run_cioq_uniform(cioq_config(2), 0.7, 41);
  EXPECT_NEAR(r.throughput, 0.7, 0.02);
}

TEST(Cioq, SpeedupReducesDelayTowardOqFloor) {
  const auto s1 = run_cioq_uniform(cioq_config(1), 0.9, 43);
  const auto s3 = run_cioq_uniform(cioq_config(3), 0.9, 43);
  const auto oq = run_oq_uniform(16, 0.9, 43, 1'000, 15'000);
  EXPECT_LT(s3.mean_delay, s1.mean_delay);
  EXPECT_LT(oq.mean_delay, s3.mean_delay + 2.0);
}

TEST(Cioq, OutcomesArePinned) {
  struct Pin {
    int speedup;
    int buffers;
    double load;
    std::uint64_t seed;
    std::uint64_t delivered;
    double mean_delay;
    double violation_rate;
    int max_output_occupancy;
  };
  for (const Pin& p :
       {Pin{1, 8, 0.9, 33, 215805, 10.657250758786844,
            0.092371555465832242, 1},
        Pin{2, 1, 0.9, 37, 216004, 5.1247708375771577,
            0.0033267966316760872, 1},
        Pin{3, 4, 0.95, 39, 228089, 9.6835928080703546, 0.0, 4}}) {
    const auto r =
        run_cioq_uniform(cioq_config(p.speedup, p.buffers), p.load, p.seed);
    SCOPED_TRACE(::testing::Message() << "speedup " << p.speedup);
    EXPECT_EQ(r.delivered, p.delivered);
    EXPECT_EQ(r.mean_delay, p.mean_delay);
    EXPECT_EQ(r.work_conservation_violation_rate, p.violation_rate);
    EXPECT_EQ(r.max_output_occupancy, p.max_output_occupancy);
  }
}

// ---- Birkhoff-von-Neumann ---------------------------------------------------------

TEST(Bvn, UnloadedDelayIsHalfPortCount) {
  // §VI.D: "high average switching latency of N/2 packets for an
  // unloaded N-port switch".
  for (int ports : {16, 32, 64}) {
    const auto r = run_bvn_uniform(ports, 0.02, 7);
    EXPECT_NEAR(r.mean_delay, ports / 2.0 + 1.0, ports * 0.15)
        << ports << " ports";
  }
}

TEST(Bvn, DeliversOutOfOrder) {
  // §VI.D: "and also because of the out-of-order packet delivery".
  const auto r = run_bvn_uniform(16, 0.6, 9);
  EXPECT_GT(r.out_of_order, 0u);
  EXPECT_GT(r.reorder_fraction, 0.01);
}

TEST(Bvn, SustainsUniformThroughput) {
  // The architecture's merit is scalability: near-100 % throughput with
  // no scheduler at all.
  const auto r = run_bvn_uniform(16, 0.95, 11);
  EXPECT_NEAR(r.throughput, 0.95, 0.02);
}

TEST(Bvn, DelayScalesWithPortCountNotLoad) {
  const auto small = run_bvn_uniform(16, 0.5, 13);
  const auto large = run_bvn_uniform(64, 0.5, 13);
  EXPECT_GT(large.mean_delay, small.mean_delay * 2.5);
}

// ---- Data Vortex -------------------------------------------------------------------

DataVortexConfig vortex_config(int ports) {
  DataVortexConfig cfg;
  cfg.ports = ports;
  cfg.warmup_slots = 1'000;
  cfg.measure_slots = 15'000;
  return cfg;
}

TEST(DataVortex, DeliversEverythingAtLowLoad) {
  const auto r = run_vortex_uniform(vortex_config(16), 0.1, 15);
  EXPECT_NEAR(r.throughput, 0.1, 0.01);
  EXPECT_GT(r.delivered, 10'000u);
}

TEST(DataVortex, UnloadedLatencyIsLogPorts) {
  // A packet descends log2(N)+1 cylinders with few deflections.
  const auto r = run_vortex_uniform(vortex_config(16), 0.02, 17);
  EXPECT_GT(r.mean_hops, 4.0);   // log2(16) = 4 descents minimum
  EXPECT_LT(r.mean_hops, 10.0);
  EXPECT_LT(r.deflection_rate, 1.5);
}

TEST(DataVortex, LimitedThroughputPerPort) {
  // §II: "can scale to very high port counts but has limited throughput
  // per port" — saturation lands well below full line rate.
  const auto r = run_vortex_uniform(vortex_config(16), 1.0, 19);
  EXPECT_LT(r.throughput, 0.9);
  EXPECT_GT(r.injection_blocked, 0u);
  EXPECT_GT(r.deflection_rate, 0.5);
}

TEST(DataVortex, DeflectionsGrowWithLoad) {
  const auto lo = run_vortex_uniform(vortex_config(16), 0.1, 21);
  const auto hi = run_vortex_uniform(vortex_config(16), 0.8, 21);
  EXPECT_GT(hi.deflection_rate, lo.deflection_rate * 2.0);
  EXPECT_GT(hi.mean_delay, lo.mean_delay);
}

TEST(DataVortex, ScalesToLargerPortCounts) {
  const auto r = run_vortex_uniform(vortex_config(64), 0.3, 23);
  EXPECT_NEAR(r.throughput, 0.3, 0.03);
}

TEST(DataVortex, RejectsNonPowerOfTwo) {
  DataVortexConfig cfg = vortex_config(12);
  EXPECT_DEATH(run_vortex_uniform(cfg, 0.1, 1), "power-of-two");
}

// ---- burst switching ----------------------------------------------------------------

BurstSwitchConfig burst_config(int burst) {
  BurstSwitchConfig cfg;
  cfg.ports = 16;
  cfg.burst_cells = burst;
  cfg.warmup_slots = 1'000;
  cfg.measure_slots = 20'000;
  return cfg;
}

TEST(BurstSwitch, UnloadedLatencyOnOrderOfBurstTime) {
  // §VI.D: "these architectures exhibit latencies on the order of the
  // packet burst time for unloaded switches".
  const auto small = run_burst_uniform(burst_config(4), 0.05, 25);
  const auto large = run_burst_uniform(burst_config(32), 0.05, 25);
  EXPECT_GT(large.mean_delay, small.mean_delay * 3.0);
  EXPECT_GT(large.mean_delay, 32.0);  // at least the container time
}

TEST(BurstSwitch, CellSizedContainersBehaveLikeCellSwitch) {
  const auto r = run_burst_uniform(burst_config(1), 0.3, 27);
  EXPECT_LT(r.mean_delay, 8.0);
  EXPECT_NEAR(r.throughput, 0.3, 0.02);
}

TEST(BurstSwitch, ThroughputHoldsUnderLoad) {
  const auto r = run_burst_uniform(burst_config(16), 0.8, 29);
  EXPECT_NEAR(r.throughput, 0.8, 0.05);
}

TEST(BurstSwitch, PartialContainersWasteBandwidth) {
  // At low load the aggregation timeout ships half-empty containers —
  // the fill statistic exposes the efficiency loss.
  const auto r = run_burst_uniform(burst_config(16), 0.1, 31);
  EXPECT_LT(r.mean_container_fill, 16.0);
}

}  // namespace
}  // namespace osmosis::baseline
