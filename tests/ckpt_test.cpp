// Tests for the checkpoint/restore subsystem (src/ckpt/ + DESIGN.md
// §10): container validation (corruption and truncation fail loudly,
// nothing partially loads), RNG round-trips, resume equivalence for all
// four simulators — N slots straight must equal k slots, snapshot,
// restore into a fresh sim, N-k slots — including a snapshot taken in
// the middle of a combined fault outage, and kill-safe campaign resume
// producing a byte-identical document.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ckpt/ckpt.hpp"
#include "src/exec/campaign.hpp"
#include "src/exec/campaign_runner.hpp"
#include "src/fabric/multiplane.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/event_switch_sim.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/cli.hpp"

namespace osmosis {
namespace {

// ---- container format -----------------------------------------------------

std::string sample_container() {
  ckpt::Writer w;
  w.add_chunk("alpha", "payload-a");
  w.add_chunk("beta", std::string("\0\x01\x02", 3));
  return w.serialize();
}

TEST(CkptFormat, RoundTripsChunksByName) {
  ckpt::Writer w;
  std::string alpha = "payload-a";
  std::uint64_t beta = 0xB17E;
  ckpt::write_chunk(w, "alpha", [&](ckpt::Sink& s) { ckpt::field(s, alpha); });
  ckpt::write_chunk(w, "beta", [&](ckpt::Sink& s) { ckpt::field(s, beta); });

  const ckpt::Reader r = ckpt::Reader::from_bytes(w.serialize());
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_FALSE(r.has("gamma"));
  std::string got_alpha;
  std::uint64_t got_beta = 0;
  ckpt::read_chunk(r, "alpha",
                   [&](ckpt::Source& s) { ckpt::field(s, got_alpha); });
  ckpt::read_chunk(r, "beta",
                   [&](ckpt::Source& s) { ckpt::field(s, got_beta); });
  EXPECT_EQ(got_alpha, alpha);
  EXPECT_EQ(got_beta, beta);
}

TEST(CkptFormat, UnknownChunksAreSkippable) {
  // A reader that only knows "alpha" still opens a file carrying
  // unknown chunks — explicit lengths keep it from desynchronizing.
  const ckpt::Reader r = ckpt::Reader::from_bytes(sample_container());
  EXPECT_NO_THROW(r.chunk("alpha"));
}

TEST(CkptFormat, EveryFlippedByteIsRejected) {
  const std::string good = sample_container();
  ASSERT_NO_THROW(ckpt::Reader::from_bytes(good));
  int rejected = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    try {
      ckpt::Reader::from_bytes(std::move(bad));
    } catch (const ckpt::Error&) {
      ++rejected;
    }
  }
  // The CRC covers every byte, so a single-byte flip anywhere must fail
  // validation (some flips also die earlier, on magic or structure).
  EXPECT_EQ(rejected, static_cast<int>(good.size()));
}

TEST(CkptFormat, EveryTruncationIsRejected) {
  const std::string good = sample_container();
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(ckpt::Reader::from_bytes(good.substr(0, n)), ckpt::Error)
        << "truncation to " << n << " bytes was accepted";
  }
}

TEST(CkptFormat, MissingChunkAndMissingFileThrow) {
  const ckpt::Reader r = ckpt::Reader::from_bytes(sample_container());
  EXPECT_THROW(r.chunk("gamma"), ckpt::Error);
  EXPECT_THROW(ckpt::Reader::from_file("/nonexistent/dir/x.ckpt"),
               ckpt::Error);
}

TEST(CkptFormat, WriteFileIsAtomicAndReadable) {
  const std::string path = ::testing::TempDir() + "ckpt_atomic.ckpt";
  ckpt::Writer w;
  w.add_chunk("alpha", "payload-a");
  w.write_file(path);
  const ckpt::Reader r = ckpt::Reader::from_file(path);
  EXPECT_TRUE(r.has("alpha"));
  std::remove(path.c_str());
}

// ---- RNG round-trip -------------------------------------------------------

TEST(CkptRng, ThousandDrawsIdenticalAfterRestore) {
  sim::Rng a(0xDEAD'BEEF);
  for (int i = 0; i < 137; ++i) a.next();  // advance off the seed point

  ckpt::Sink sink;
  ckpt::field(sink, a);
  std::string bytes = sink.take();

  sim::Rng b(1);  // different seed: load must overwrite all state
  ckpt::Source src(bytes);
  ckpt::field(src, b);
  src.expect_end();

  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next()) << "draw " << i;
}

TEST(CkptRng, RestoredGeneratorMatchesAcrossDistributions) {
  sim::Rng a(42);
  a.uniform();
  a.geometric(0.25);

  ckpt::Sink sink;
  ckpt::field(sink, a);
  std::string bytes = sink.take();
  sim::Rng b(7);
  ckpt::Source src(bytes);
  ckpt::field(src, b);

  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.uniform(), b.uniform());
    ASSERT_EQ(a.uniform_int(97), b.uniform_int(97));
    ASSERT_EQ(a.bernoulli(0.3), b.bernoulli(0.3));
  }
}

// ---- resume equivalence: all four simulators ------------------------------

// Serialized RunReport bytes — the strongest equality we can ask for:
// config echo, counters, histograms, health verdicts, all of it.
std::string report_bytes(const telemetry::RunReport& rep) {
  ckpt::Sink s;
  ckpt::field(s, const_cast<telemetry::RunReport&>(rep));
  return s.take();
}

sw::SwitchSimConfig small_switch_cfg(bool faulty) {
  sw::SwitchSimConfig cfg;
  cfg.ports = 16;  // the combined plan stalls adapter 12
  cfg.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sched.receivers = 2;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 4;
  cfg.drain_max_slots = 20'000;
  if (faulty) {
    // Combined scenario, same derivation the campaign layer uses.
    cfg.fault_plan = exec::make_fault_plan(exec::FaultScenario::kCombined,
                                           cfg.warmup_slots,
                                           cfg.measure_slots);
    cfg.fault_plan.seeded(0x5EED);
  }
  return cfg;
}

TEST(CkptResume, SwitchSimMidRunRestoreIsExact) {
  for (bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "combined faults" : "fault-free");
    const auto cfg = small_switch_cfg(faulty);
    // With faults on, k lands mid-outage: the combined plan opens at
    // warmup + measure/4 = 700 and spans 500 slots.
    const std::uint64_t k = faulty ? 900 : 777;

    sw::SwitchSim a(cfg, sim::make_uniform(cfg.ports, 0.6, 99));
    const auto straight = a.run();

    sw::SwitchSim b(cfg, sim::make_uniform(cfg.ports, 0.6, 99));
    for (std::uint64_t i = 0; i < k; ++i) ASSERT_TRUE(b.advance_slot());
    ckpt::Writer w;
    b.save_state(w);
    const std::string bytes = w.serialize();

    sw::SwitchSim c(cfg, sim::make_uniform(cfg.ports, 0.6, 99));
    c.load_state(ckpt::Reader::from_bytes(bytes));
    const auto resumed = c.run();

    EXPECT_EQ(straight.delivered, resumed.delivered);
    EXPECT_EQ(straight.mean_delay, resumed.mean_delay);
    EXPECT_EQ(report_bytes(a.report()), report_bytes(c.report()));
  }
}

TEST(CkptResume, SwitchSimRejectsForeignConfig) {
  const auto cfg = small_switch_cfg(false);
  sw::SwitchSim a(cfg, sim::make_uniform(cfg.ports, 0.6, 99));
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(a.advance_slot());
  ckpt::Writer w;
  a.save_state(w);

  auto other = cfg;
  other.ports = 8;
  sw::SwitchSim b(other, sim::make_uniform(other.ports, 0.6, 99));
  EXPECT_THROW(b.load_state(ckpt::Reader::from_bytes(w.serialize())),
               ckpt::Error);
}

TEST(CkptResume, EventSwitchSimMidRunRestoreIsExact) {
  sw::EventSwitchConfig cfg;
  cfg.ports = 16;  // the combined plan stalls adapter 12
  cfg.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sched.receivers = 2;
  cfg.default_ctrl_ns = 100.0;
  cfg.warmup_ns = 200 * cfg.cell_ns;
  cfg.measure_ns = 2'000 * cfg.cell_ns;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 4;
  cfg.fault_plan = exec::make_fault_plan(exec::FaultScenario::kCombined,
                                         200, 2'000);
  cfg.fault_plan.seeded(0x5EED);
  cfg.drain_max_cycles = 20'000;

  sw::EventSwitchSim a(cfg, sim::make_uniform(cfg.ports, 0.5, 7));
  const auto straight = a.run();

  // Advance 5,000 lands in cycle ~200, before the plan opens at 700;
  // advance 25,000 lands in cycle ~1000, with all five faults open:
  // module 7/1 dead, fiber 3 cut and adapter 12 stalled on the same
  // input, so the snapshot holds a failed receiver and a mask of depth 2.
  for (const int k : {5'000, 25'000}) {
    SCOPED_TRACE(k);
    sw::EventSwitchSim b(cfg, sim::make_uniform(cfg.ports, 0.5, 7));
    for (int i = 0; i < k; ++i) ASSERT_TRUE(b.advance());
    ckpt::Writer w;
    b.save_state(w);

    sw::EventSwitchSim c(cfg, sim::make_uniform(cfg.ports, 0.5, 7));
    c.load_state(ckpt::Reader::from_bytes(w.serialize()));
    const auto resumed = c.run();

    EXPECT_EQ(straight.delivered, resumed.delivered);
    EXPECT_EQ(straight.mean_delay_ns, resumed.mean_delay_ns);
    EXPECT_EQ(report_bytes(a.report()), report_bytes(c.report()));
  }
}

TEST(CkptResume, EventSwitchSimRestoresGrantsStaleAfterAModuleDeath) {
  // Grants ride a 10-cycle control fiber, so when module 3/1 dies at
  // cycle 300 some grants naming it are still in flight; they arrive
  // stale and are retransmitted. A snapshot taken just after the death
  // (advance 6,320; the death fires at 6,310) must restore the surviving
  // receivers that make them stale.
  sw::EventSwitchConfig cfg;
  cfg.ports = 8;
  cfg.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sched.receivers = 2;
  cfg.default_ctrl_ns = 10 * cfg.cell_ns;
  cfg.warmup_ns = 100 * cfg.cell_ns;
  cfg.measure_ns = 500 * cfg.cell_ns;
  cfg.fault_plan.kill_module(300, 3, 1, 100);
  cfg.drain_max_cycles = 5'000;

  sw::EventSwitchSim a(cfg, sim::make_uniform(cfg.ports, 0.9, 7));
  const auto straight = a.run();
  EXPECT_EQ(straight.retransmissions, 2u);

  sw::EventSwitchSim b(cfg, sim::make_uniform(cfg.ports, 0.9, 7));
  for (int i = 0; i < 6'320; ++i) ASSERT_TRUE(b.advance());
  ASSERT_EQ(b.health().event_log(),
            std::vector<std::string>{"t=300 module/3/1 FAILED (injected)"});
  ckpt::Writer w;
  b.save_state(w);

  sw::EventSwitchSim c(cfg, sim::make_uniform(cfg.ports, 0.9, 7));
  c.load_state(ckpt::Reader::from_bytes(w.serialize()));
  const auto resumed = c.run();

  EXPECT_EQ(resumed.retransmissions, straight.retransmissions);
  EXPECT_EQ(resumed.delivered, straight.delivered);
  EXPECT_EQ(resumed.mean_delay_ns, straight.mean_delay_ns);
  EXPECT_EQ(report_bytes(a.report()), report_bytes(c.report()));
}

// The leaf-spine fabric runs on TopoSim's two-level fat-tree preset.
TEST(CkptResume, FabricSimMidOutageRestoreIsExact) {
  topo::TopoSimConfig cfg = topo::leaf_spine_config(4);
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 4;
  cfg.fault_plan = exec::make_fault_plan(exec::FaultScenario::kSpineOutage,
                                         cfg.warmup_slots, cfg.measure_slots);
  cfg.fault_plan.seeded(0x5EED);
  cfg.drain_max_slots = 20'000;
  const int hosts = cfg.hosts;

  topo::TopoSim a(cfg, sim::make_uniform(hosts, 0.4, 11));
  const auto straight = a.run();
  EXPECT_EQ(straight.delivered, 6373u);
  EXPECT_EQ(straight.mean_delay_slots, 94.879805429154189);
  EXPECT_EQ(straight.drained_slots, 12u);
  EXPECT_EQ(a.monitor().checks(), 2212u);
  EXPECT_EQ(straight.faults_recovered, 1u);
  EXPECT_EQ(straight.mean_recovery_slots, 367.0);
  EXPECT_EQ(a.telemetry().stages().count(), 1594u);
  EXPECT_EQ(a.telemetry().stages().end_to_end().mean(), 96.484316185696372);

  topo::TopoSim b(cfg, sim::make_uniform(hosts, 0.4, 11));
  for (int i = 0; i < 900; ++i) ASSERT_TRUE(b.advance_slot());  // spine down
  ckpt::Writer w;
  b.save_state(w);

  topo::TopoSim c(cfg, sim::make_uniform(hosts, 0.4, 11));
  c.load_state(ckpt::Reader::from_bytes(w.serialize()));
  const auto resumed = c.run();

  EXPECT_EQ(straight.delivered, resumed.delivered);
  EXPECT_EQ(straight.mean_delay_slots, resumed.mean_delay_slots);
  EXPECT_EQ(report_bytes(a.report()), report_bytes(c.report()));
}

TEST(CkptResume, FabricSimMidDegradedRestoreIsExact) {
  // Checkpoint taken DURING a permanent degraded interval: adaptive
  // route tables, resequencer parkings, admission bucket levels, and
  // the availability accumulators must all restore so the resumed run
  // is byte-identical to the uninterrupted one.
  topo::TopoSimConfig cfg = topo::leaf_spine_config(8);
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.adaptive_routing = true;
  cfg.admission = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 4;
  cfg.fault_plan = exec::make_fault_plan(exec::FaultScenario::kSpinePermanent,
                                         cfg.warmup_slots, cfg.measure_slots);
  cfg.fault_plan.seeded(0x5EED);
  cfg.drain_max_slots = 60'000;
  const int hosts = cfg.hosts;

  topo::TopoSim a(cfg, sim::make_uniform(hosts, 0.8, 11));
  const auto straight = a.run();
  EXPECT_GT(straight.shed_cells, 0u);  // the snapshot interval is degraded
  EXPECT_EQ(straight.delivered, 40148u);
  EXPECT_EQ(straight.mean_delay_slots, 113.93641028195707);
  EXPECT_EQ(straight.drained_slots, 525u);
  EXPECT_EQ(a.monitor().checks(), 2725u);
  EXPECT_EQ(straight.injected_total + straight.shed_cells, 56281u);
  EXPECT_EQ(straight.shed_cells, 4003u);
  EXPECT_EQ(straight.resteered, 13u);
  EXPECT_EQ(straight.reroute_ooo, 3u);
  EXPECT_EQ(straight.max_resequencer_depth, 3u);
  EXPECT_EQ(straight.brownout_slots, 1500u);

  topo::TopoSim b(cfg, sim::make_uniform(hosts, 0.8, 11));
  for (int i = 0; i < 1'200; ++i) ASSERT_TRUE(b.advance_slot());  // spine cut
  ckpt::Writer w;
  b.save_state(w);

  topo::TopoSim c(cfg, sim::make_uniform(hosts, 0.8, 11));
  c.load_state(ckpt::Reader::from_bytes(w.serialize()));
  const auto resumed = c.run();

  EXPECT_EQ(straight.delivered, resumed.delivered);
  EXPECT_EQ(straight.shed_cells, resumed.shed_cells);
  EXPECT_EQ(straight.resteered, resumed.resteered);
  EXPECT_EQ(straight.brownout_slots, resumed.brownout_slots);
  EXPECT_EQ(straight.mean_delay_slots, resumed.mean_delay_slots);
  EXPECT_EQ(report_bytes(a.report()), report_bytes(c.report()));
}

TEST(CkptResume, MultiPlaneSimMidOutageRestoreIsExact) {
  fabric::MultiPlaneConfig cfg;
  cfg.ports = 8;
  cfg.planes = 2;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.fault_plan.fail_plane(700, 1, 500);
  cfg.drain_max_slots = 20'000;

  auto gens = [&] {
    std::vector<std::unique_ptr<sim::TrafficGen>> v;
    for (int p = 0; p < cfg.planes; ++p)
      v.push_back(sim::make_uniform(cfg.ports, 0.3,
                                    0x9000 + static_cast<std::uint64_t>(p)));
    return v;
  };

  fabric::MultiPlaneSim a(cfg, gens());
  const auto straight = a.run();

  fabric::MultiPlaneSim b(cfg, gens());
  for (int i = 0; i < 900; ++i) ASSERT_TRUE(b.advance_slot());  // plane dead
  ckpt::Writer w;
  b.save_state(w);

  fabric::MultiPlaneSim c(cfg, gens());
  c.load_state(ckpt::Reader::from_bytes(w.serialize()));
  const auto resumed = c.run();

  EXPECT_EQ(straight.delivered, resumed.delivered);
  EXPECT_EQ(straight.mean_delay_slots, resumed.mean_delay_slots);
  EXPECT_EQ(straight.resteered, resumed.resteered);
  EXPECT_EQ(straight.cross_plane_ooo, resumed.cross_plane_ooo);
  EXPECT_TRUE(resumed.exactly_once_in_order);
}

// ---- snapshot layout --------------------------------------------------------
//
// The resume tests above round-trip within one build, so a change to
// the osmosis.ckpt.v1 bytes would pass them. These pin the CRC32 of
// whole mid-run snapshots to values recorded when the engines still
// kept one std::deque per queue and a std::map resequencer: snapshots
// store logical queue contents, never the engines' storage (DESIGN.md
// §10). Each test also decodes the chunk it is about with mirror types
// of the documented wire shape, to show the snapshot holds the state
// it is meant to pin.

template <class Sim>
std::string snapshot_bytes(const Sim& sim) {
  ckpt::Writer w;
  sim.save_state(w);
  return w.serialize();
}

// CRC32 of everything before the container's own trailing CRC (the
// CRC of a message followed by its CRC is a constant).
std::uint32_t body_crc(std::string_view bytes) {
  return ckpt::crc32(bytes.substr(0, bytes.size() - 4));
}

// CRC32 of one chunk's payload, so a pin can say which part moved.
std::uint32_t chunk_crc(const ckpt::Reader& r, std::string_view name) {
  ckpt::Source s = r.chunk(name);
  std::string payload(s.remaining(), '\0');
  s.raw(payload.data(), payload.size());
  return ckpt::crc32(payload);
}

// Wire mirrors: a VOQ bank is one (control, data) queue pair per
// destination, then its total and max depth; a parked resequencer cell
// is the cell and the slot it left its plane.
struct VoqBankWire {
  struct ClassQueues {
    std::deque<sw::Cell> control;
    std::deque<sw::Cell> data;
    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, control);
      ckpt::field(a, data);
    }
  };
  std::vector<ClassQueues> queues;
  int total = 0;
  int max_depth = 0;
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, queues);
    ckpt::field(a, total);
    ckpt::field(a, max_depth);
  }
};

struct ParkedWire {
  sw::Cell cell;
  std::uint64_t egress_slot = 0;
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, cell);
    ckpt::field(a, egress_slot);
  }
};

std::vector<VoqBankWire> decode_voq_chunk(const ckpt::Reader& r,
                                          std::string_view name) {
  ckpt::Source s = r.chunk(name);
  std::vector<VoqBankWire> banks;
  ckpt::field(s, banks);  // same shape: a u64 count, then each bank
  s.expect_end();
  return banks;
}

std::uint64_t queued_cells(const std::vector<VoqBankWire>& banks) {
  std::uint64_t n = 0;
  for (const auto& b : banks)
    for (const auto& q : b.queues) n += q.control.size() + q.data.size();
  return n;
}

TEST(CkptLayout, SwitchSimSnapshotBytesArePinned) {
  // Lost grants leave their cells at the head of the VOQ while the
  // request time is popped and a retry matures, so VOQs and request
  // FIFOs are both non-empty and out of step at the snapshot.
  auto cfg = small_switch_cfg(false);
  cfg.fault_plan.corrupt_grants(300, 1'000, 0.2).seeded(0x5EED);
  sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.8, 99));
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(sim.advance_slot());
  const std::string bytes = snapshot_bytes(sim);

  const auto r = ckpt::Reader::from_bytes(bytes);
  ckpt::Source core = r.chunk("switch.core");
  std::uint64_t now = 0;
  std::uint64_t window_mark = 0;
  double min_window_thr = 0.0;
  std::vector<std::uint64_t> flow_seq;
  std::deque<std::pair<std::uint64_t, std::pair<int, int>>> request_pipe;
  std::vector<std::deque<std::uint64_t>> request_times;
  ckpt::field(core, now);
  ckpt::field(core, window_mark);
  ckpt::field(core, min_window_thr);
  ckpt::field(core, flow_seq);
  ckpt::field(core, request_pipe);
  ckpt::field(core, request_times);
  EXPECT_EQ(now, 600u);
  EXPECT_TRUE(request_pipe.empty());  // zero control-path delay
  ASSERT_EQ(request_times.size(),
            static_cast<std::size_t>(cfg.ports) * cfg.ports);
  std::uint64_t pending_times = 0;
  for (const auto& q : request_times) pending_times += q.size();
  const std::uint64_t queued = queued_cells(decode_voq_chunk(r, "switch.voq"));
  EXPECT_GT(pending_times, 0u);
  EXPECT_GT(queued, pending_times);  // retries outstanding

  EXPECT_EQ(body_crc(bytes), 0xCED47959u);
}

TEST(CkptLayout, EventSwitchSimSnapshotBytesArePinned) {
  sw::EventSwitchConfig cfg;
  cfg.ports = 16;
  cfg.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sched.receivers = 2;
  cfg.default_ctrl_ns = 100.0;
  cfg.warmup_ns = 200 * cfg.cell_ns;
  cfg.measure_ns = 2'000 * cfg.cell_ns;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 4;
  cfg.fault_plan = exec::make_fault_plan(exec::FaultScenario::kCombined,
                                         200, 2'000);
  cfg.fault_plan.seeded(0x5EED);
  cfg.drain_max_cycles = 20'000;
  sw::EventSwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.7, 7));
  for (int i = 0; i < 5'000; ++i) ASSERT_TRUE(sim.advance());
  const std::string bytes = snapshot_bytes(sim);

  const auto r = ckpt::Reader::from_bytes(bytes);
  EXPECT_GT(queued_cells(decode_voq_chunk(r, "event.voq")), 0u);

  EXPECT_EQ(body_crc(bytes), 0x78F2F744u);
}

TEST(CkptLayout, MultiPlaneSimSnapshotBytesArePinned) {
  // Plane 1 dies at slot 700 and its load moves onto planes 0 and 2,
  // which still stripe every flow, so 20 slots into the outage the
  // resequencers hold early arrivals.
  fabric::MultiPlaneConfig cfg;
  cfg.ports = 8;
  cfg.planes = 3;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.fault_plan.fail_plane(700, 1, 500);
  cfg.drain_max_slots = 20'000;
  std::vector<std::unique_ptr<sim::TrafficGen>> gens;
  for (int p = 0; p < cfg.planes; ++p)
    gens.push_back(sim::make_uniform(cfg.ports, 0.7,
                                     0x9000 + static_cast<std::uint64_t>(p)));
  fabric::MultiPlaneSim sim(cfg, std::move(gens));
  for (int i = 0; i < 720; ++i) ASSERT_TRUE(sim.advance_slot());
  const std::string bytes = snapshot_bytes(sim);

  const auto r = ckpt::Reader::from_bytes(bytes);
  ckpt::Source core = r.chunk("multiplane.core");
  std::uint64_t now = 0;
  std::vector<std::uint64_t> flow_seq;
  std::vector<std::map<std::pair<int, std::uint64_t>, ParkedWire>> parked;
  std::vector<std::map<int, std::uint64_t>> expected;
  ckpt::field(core, now);
  ckpt::field(core, flow_seq);
  ckpt::field(core, parked);
  ckpt::field(core, expected);
  ASSERT_EQ(parked.size(), static_cast<std::size_t>(cfg.ports));
  std::size_t parked_cells = 0;
  for (const auto& park : parked) parked_cells += park.size();
  EXPECT_GT(parked_cells, 0u);

  EXPECT_EQ(body_crc(bytes), 0x16CF04BFu);
}

// The multistage pins below were recorded while every engine still kept
// its own flow_seq vector beside a std::map order ledger and the
// monitor's hash-map exactly-once ledger, so they hold the three flow
// views' wire shapes fixed as well as the queues.
//
// Wire mirrors of TopoSim's host-side queues: flits, also carried in
// cable flight with the slot they land.
struct FlitWire {
  int src = -1;
  int dst = -1;
  std::uint64_t seq = 0;
  std::uint64_t inject_slot = 0;
  std::uint64_t enter_slot = 0;
  int hops = 0;
  std::uint8_t head = 1;
  std::uint8_t tail = 1;
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, src);
    ckpt::field(a, dst);
    ckpt::field(a, seq);
    ckpt::field(a, inject_slot);
    ckpt::field(a, enter_slot);
    ckpt::field(a, hops);
    ckpt::field(a, head);
    ckpt::field(a, tail);
  }
};

template <class Item>
struct TimedWire {
  std::uint64_t slot = 0;
  Item item;
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, slot);
    ckpt::field(a, item);
  }
};

// A flow_seq vector that shows traffic in flight: one counter per
// (src, dst) pair, many flows started, and as many cells sent as the
// monitor counted offered.
template <class Monitor>
void expect_live_flow_seq(const std::vector<std::uint64_t>& flow_seq,
                          int hosts, const Monitor& monitor) {
  ASSERT_EQ(flow_seq.size(), static_cast<std::size_t>(hosts) * hosts);
  std::uint64_t sent = 0;
  std::size_t started = 0;
  std::uint64_t longest = 0;
  for (std::uint64_t s : flow_seq) {
    sent += s;
    started += s != 0;
    longest = std::max(longest, s);
  }
  EXPECT_EQ(sent, monitor.offered_cells());
  EXPECT_GT(started, flow_seq.size() / 2);
  EXPECT_GT(longest, 1u);
  EXPECT_GT(monitor.offered_cells(), monitor.delivered_cells());
}

// The topo.core prefix every TopoSim snapshot starts with, and the rest
// of the chunk verbatim.
struct TopoCoreWire {
  std::uint64_t now = 0;
  std::uint64_t drained = 0;
  std::vector<std::deque<FlitWire>> host_queue;
  std::vector<int> host_credits;
  std::vector<int> host_lane_credits;
  std::vector<std::deque<std::uint64_t>> host_credit_in;
  std::vector<std::deque<std::pair<std::uint64_t, int>>> host_lane_credit_in;
  std::vector<std::deque<TimedWire<FlitWire>>> host_out;
  std::vector<std::uint64_t> flow_seq;
  std::string rest;

  explicit TopoCoreWire(const ckpt::Reader& r) {
    ckpt::Source core = r.chunk("topo.core");
    io_state(core);
    rest.resize(core.remaining());
    core.raw(rest.data(), rest.size());
  }
  /// The chunk's bytes: the prefix, then the rest.
  std::string bytes() const {
    TopoCoreWire copy = *this;
    ckpt::Sink out;
    copy.io_state(out);
    out.raw(rest.data(), rest.size());
    return out.take();
  }
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, now);
    ckpt::field(a, drained);
    ckpt::field(a, host_queue);
    ckpt::field(a, host_credits);
    ckpt::field(a, host_lane_credits);
    ckpt::field(a, host_credit_in);
    ckpt::field(a, host_lane_credit_in);
    ckpt::field(a, host_out);
    ckpt::field(a, flow_seq);
  }
};

TEST(CkptLayout, FabricSimSnapshotBytesArePinned) {
  // The leaf-spine preset 200 slots into the spine outage: leaves hold
  // cells for the frozen spine, credits and cells are on the cables,
  // hosts are backlogged.
  topo::TopoSimConfig cfg = topo::leaf_spine_config(8);
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.fault_plan = exec::make_fault_plan(exec::FaultScenario::kSpineOutage,
                                         cfg.warmup_slots, cfg.measure_slots);
  cfg.fault_plan.seeded(0x5EED);
  cfg.drain_max_slots = 20'000;
  const int hosts = cfg.hosts;
  topo::TopoSim sim(cfg, sim::make_uniform(hosts, 0.6, 23));
  for (int i = 0; i < 900; ++i) ASSERT_TRUE(sim.advance_slot());
  const std::string bytes = snapshot_bytes(sim);

  const auto r = ckpt::Reader::from_bytes(bytes);
  const TopoCoreWire core(r);
  EXPECT_EQ(core.now, 900u);
  ASSERT_EQ(core.host_queue.size(), static_cast<std::size_t>(hosts));
  std::size_t host_backlog = 0;
  for (const auto& q : core.host_queue) host_backlog += q.size();
  EXPECT_GT(host_backlog, 0u);
  expect_live_flow_seq(core.flow_seq, hosts, sim.monitor());
  // The outage's recovery and health state rides in its own chunk.
  EXPECT_TRUE(r.has("topo.faults"));

  EXPECT_EQ(body_crc(bytes), 0xDB83EDADu);
}

TEST(CkptLayout, TopoSimSnapshotBytesArePinned) {
  struct Case {
    const char* what;
    topo::FcKind fc;
    topo::TopoKind kind;
    bool freeze;
    double load;
    std::uint32_t crc;
    // Payload CRCs of topo.core, topo.switches, topo.traffic, topo.stats.
    std::uint32_t chunks[4];
  };
  // Credit FC: 150 slots into a transient freeze of top switch 0, so
  // its VOQs and the credits owed to it are parked; the freeze's
  // recovery and health state adds a topo.faults chunk. Relayed FC: every
  // credit in flight was returned by the last slot's grants and is due
  // the slot after. Wormhole VC: worms mid-flight in the Benes network's
  // lanes.
  const Case cases[] = {
      {"credit", topo::FcKind::kCredit, topo::TopoKind::kFatTree, true, 0.5,
       0x822EB697u,
       {0x83AEB14Bu, 0xD08FD39Au, 0xC320D759u, 0x1539329Cu}},
      {"relayed", topo::FcKind::kRelayed, topo::TopoKind::kFatTree, false,
       0.5, 0xBF8D18CBu,
       {0x3CB75439u, 0x0008F21Au, 0xC320D759u, 0x4BDACD0Du}},
      {"wormhole", topo::FcKind::kWormholeVc, topo::TopoKind::kBenes, false,
       0.5, 0xF4A0D6C8u,
       {0xEC227910u, 0x7CCC5EFCu, 0x71642BB1u, 0x5C861BDBu}},
  };
  for (const Case& c : cases) {
    topo::TopoSimConfig cfg;
    cfg.topology = c.kind;
    cfg.hosts = 32;
    cfg.fc.kind = c.fc;
    cfg.warmup_slots = 200;
    cfg.measure_slots = 2'000;
    cfg.drain_max_slots = 50'000;
    if (c.freeze) {
      faults::FaultEvent top;
      top.kind = faults::FaultKind::kPlaneFailure;
      top.a = 0;
      top.at_slot = 400;
      top.duration_slots = 300;
      cfg.fault_plan.add(top);
      cfg.fault_plan.seeded(1);
    }
    const double packet_p =
        c.fc == topo::FcKind::kWormholeVc ? c.load / cfg.fc.flits_per_packet
                                          : c.load;
    topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, packet_p, 0x5EED));
    for (int i = 0; i < 550; ++i) ASSERT_TRUE(sim.advance_slot()) << c.what;
    const std::string bytes = snapshot_bytes(sim);

    const auto r = ckpt::Reader::from_bytes(bytes);
    const TopoCoreWire core(r);
    EXPECT_EQ(core.now, 550u) << c.what;
    ASSERT_EQ(core.host_queue.size(), static_cast<std::size_t>(cfg.hosts));
    // Exactly one of the two host credit schemes is populated.
    EXPECT_EQ(core.host_credits.empty(), c.fc == topo::FcKind::kWormholeVc)
        << c.what;
    EXPECT_EQ(core.host_lane_credits.empty(),
              c.fc != topo::FcKind::kWormholeVc)
        << c.what;
    expect_live_flow_seq(core.flow_seq, cfg.hosts, sim.monitor());
    if (c.fc == topo::FcKind::kRelayed) {
      // Relayed credits carry their grant slot: all of them are the
      // previous slot's.
      std::size_t owed = 0;
      for (const auto& q : core.host_credit_in)
        for (const std::uint64_t at : q) {
          EXPECT_EQ(at, core.now - 1) << c.what;
          ++owed;
        }
      EXPECT_GT(owed, 0u) << c.what;
    }

    const char* chunks[] = {"topo.core", "topo.switches", "topo.traffic",
                            "topo.stats"};
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(chunk_crc(r, chunks[i]), c.chunks[i]) << c.what << " "
                                                      << chunks[i];
    EXPECT_EQ(body_crc(bytes), c.crc) << c.what;
  }
}

TEST(CkptResume, TopoSimRejectsCableEntriesOffTheirRing) {
  // Cells in cable flight sit on a ring of (longest flight + 1) buckets
  // indexed by due slot. A snapshot whose host cable holds an entry due
  // before the next slot, past the ring, or twice in one slot cannot be
  // filed and must throw.
  topo::TopoSimConfig cfg;
  cfg.hosts = 32;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.5, 0x5EED));
  for (int i = 0; i < 550; ++i) ASSERT_TRUE(sim.advance_slot());
  const auto r = ckpt::Reader::from_bytes(snapshot_bytes(sim));
  const TopoCoreWire core(r);
  std::size_t h = 0;
  while (h < core.host_out.size() && core.host_out[h].empty()) ++h;
  ASSERT_LT(h, core.host_out.size()) << "no cell on a host cable";
  const std::uint64_t now = core.now;
  EXPECT_EQ(core.host_out[h].front().slot, now);  // host cables take 1 slot

  const auto load_with = [&](const TimedWire<FlitWire>& extra,
                             bool replace) {
    TopoCoreWire tampered = core;
    if (replace) tampered.host_out[h].clear();
    tampered.host_out[h].push_back(extra);
    ckpt::Writer w;
    w.add_chunk("topo.core", tampered.bytes());
    for (const char* name : {"topo.switches", "topo.traffic", "topo.stats"}) {
      ckpt::Source src = r.chunk(name);
      std::string payload(src.remaining(), '\0');
      src.raw(payload.data(), payload.size());
      w.add_chunk(name, payload);
    }
    topo::TopoSim fresh(cfg, sim::make_uniform(cfg.hosts, 0.5, 0x5EED));
    fresh.load_state(ckpt::Reader::from_bytes(w.serialize()));
  };
  TimedWire<FlitWire> cell = core.host_out[h].front();
  EXPECT_NO_THROW(load_with(cell, /*replace=*/true));
  EXPECT_THROW(load_with(cell, /*replace=*/false), ckpt::Error);  // twice
  cell.slot = now - 1;
  EXPECT_THROW(load_with(cell, true), ckpt::Error);  // already landed
  cell.slot = now + 5;  // the ring spans now .. now + 4
  EXPECT_THROW(load_with(cell, true), ckpt::Error);
}

TEST(CkptResume, TopoSimLedgerCountsEveryLoadedRingEntry) {
  // A credit-FC snapshot with one credit too many on a host's credit
  // ring, filed in a free bucket inside the ring's window so loading
  // accepts it. The credit ledger reads the ring, so the first slot
  // after the load must report one credit more than the pool holds.
  topo::TopoSimConfig cfg;
  cfg.hosts = 32;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.5, 0x5EED));
  for (int i = 0; i < 550; ++i) ASSERT_TRUE(sim.advance_slot());
  ASSERT_EQ(sim.monitor().violations(), 0u);
  const auto r = ckpt::Reader::from_bytes(snapshot_bytes(sim));
  TopoCoreWire core(r);
  // A host credit crosses a one-slot cable, so every one in flight is
  // due at the next slot and now + 2 is free on every host.
  const std::uint64_t extra = core.now + 2;
  for (const auto& q : core.host_credit_in)
    for (const std::uint64_t at : q) ASSERT_EQ(at, core.now);
  core.host_credit_in[3].push_back(extra);

  ckpt::Writer w;
  w.add_chunk("topo.core", core.bytes());
  for (const char* name : {"topo.switches", "topo.traffic", "topo.stats"}) {
    ckpt::Source src = r.chunk(name);
    std::string payload(src.remaining(), '\0');
    src.raw(payload.data(), payload.size());
    w.add_chunk(name, payload);
  }
  topo::TopoSim fresh(cfg, sim::make_uniform(cfg.hosts, 0.5, 0x5EED));
  fresh.load_state(ckpt::Reader::from_bytes(w.serialize()));
  ASSERT_TRUE(fresh.advance_slot());
  // 12 switches of 8 inputs, 16 cells of buffer each.
  EXPECT_EQ(fresh.monitor().violations(), 1u);
  EXPECT_EQ(fresh.monitor().first_violation(),
            "slot=550 credit: ledger=1537 != pool=1536");
}

TEST(CkptResume, TamperedSnapshotNeverLoadsPartially) {
  const auto cfg = small_switch_cfg(false);
  sw::SwitchSim a(cfg, sim::make_uniform(cfg.ports, 0.6, 99));
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(a.advance_slot());
  ckpt::Writer w;
  a.save_state(w);
  std::string bytes = w.serialize();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);

  sw::SwitchSim fresh(cfg, sim::make_uniform(cfg.ports, 0.6, 99));
  // Validation fails at open, before any chunk is handed out...
  EXPECT_THROW(fresh.load_state(ckpt::Reader::from_bytes(std::move(bytes))),
               ckpt::Error);
  // ...so the sim is untouched and still runs the pristine trajectory.
  sw::SwitchSim straight(cfg, sim::make_uniform(cfg.ports, 0.6, 99));
  (void)straight.run();
  (void)fresh.run();
  EXPECT_EQ(report_bytes(straight.report()), report_bytes(fresh.report()));
}

// ---- campaign checkpoint/resume -------------------------------------------

exec::CampaignSpec tiny_campaign() {
  exec::CampaignSpec spec;
  spec.name = "ckpt_tiny";
  spec.ports = {16};  // combined plan stalls adapter 12
  spec.schedulers = {sw::SchedulerKind::kFlppr};
  spec.receivers = {2};
  spec.loads = {0.4, 0.8};
  spec.faults = {exec::FaultScenario::kNone, exec::FaultScenario::kCombined};
  spec.warmup_slots = 200;
  spec.measure_slots = 1'000;
  spec.campaign_seed = 0xC4;
  return spec;
}

TEST(CkptCampaign, InFlightJobResumesToIdenticalResult) {
  const auto jobs = tiny_campaign().expand();
  ASSERT_FALSE(jobs.empty());
  const exec::JobSpec job = jobs.back();  // kCombined fault job

  const exec::JobResult straight = exec::run_job(job);

  exec::CheckpointPolicy ck;
  ck.dir = ::testing::TempDir() + "ckpt_inflight";
  std::filesystem::create_directories(ck.dir);
  ck.every = 300;
  std::uint64_t last_step = 0;
  ck.on_checkpoint = [&](const std::string&, std::uint64_t step) {
    last_step = step;
  };
  (void)exec::run_job_checkpointed(job, ck);
  ASSERT_GT(last_step, 0u);  // a state file exists from step last_step

  ck.resume = true;  // restore mid-flight and finish
  const exec::JobResult resumed = exec::run_job_checkpointed(job, ck);

  EXPECT_EQ(straight.metrics, resumed.metrics);
  EXPECT_EQ(report_bytes(straight.report), report_bytes(resumed.report));
}

TEST(CkptCampaign, ResumedCampaignDocumentIsByteIdentical) {
  const auto spec = tiny_campaign();

  exec::RunnerOptions straight_opts;
  straight_opts.threads = 2;
  const std::string want =
      exec::CampaignRunner(straight_opts).run(spec).to_json(2, false);

  const std::string dir = ::testing::TempDir() + "ckpt_campaign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  exec::RunnerOptions opts;
  opts.threads = 2;
  opts.checkpoint.dir = dir;
  opts.checkpoint.every = 250;
  EXPECT_EQ(exec::CampaignRunner(opts).run(spec).to_json(2, false), want);

  // Simulate a kill: drop one done file entirely and corrupt another,
  // then resume — both jobs re-run, the rest load verbatim.
  std::filesystem::remove(dir + "/job_0.done.ckpt");
  {
    std::ofstream f(dir + "/job_1.done.ckpt",
                    std::ios::binary | std::ios::trunc);
    f << "not a checkpoint";
  }
  opts.checkpoint.resume = true;
  EXPECT_EQ(exec::CampaignRunner(opts).run(spec).to_json(2, false), want);

  std::filesystem::remove_all(dir);
}

TEST(CkptCampaign, DoneFileForOneSpecRejectsAnother) {
  const auto jobs = tiny_campaign().expand();
  ASSERT_GE(jobs.size(), 2u);
  const std::string path = ::testing::TempDir() + "ckpt_done_swap.ckpt";
  exec::write_job_result_file(exec::run_job(jobs[0]), path);
  EXPECT_NO_THROW(exec::read_job_result_file(jobs[0], path));
  exec::JobSpec other = jobs[1];
  other.index = jobs[0].index;  // same slot, different axes
  EXPECT_THROW(exec::read_job_result_file(other, path), ckpt::Error);
  std::remove(path.c_str());
}

// ---- cli path flags -------------------------------------------------------

TEST(CliPath, BooleanLiteralsAreRecognized) {
  for (const char* t : {"true", "false", "1", "0", "yes", "no", "on", "off"})
    EXPECT_TRUE(util::is_boolean_literal(t)) << t;
  for (const char* t : {"./true", "out.json", "", "2", "TRUE", "/tmp/x"})
    EXPECT_FALSE(util::is_boolean_literal(t)) << t;
}

TEST(CliPath, GetPathReturnsValueOrDefault) {
  const char* argv[] = {"prog", "--json=/tmp/out.json"};
  const util::Cli cli(2, argv);
  EXPECT_EQ(cli.get_path("json", ""), "/tmp/out.json");
  EXPECT_EQ(cli.get_path("resume", "fallback"), "fallback");
}

TEST(CliPathDeathTest, BareFlagForPathOptionIsAUsageError) {
  const char* argv[] = {"prog", "--resume"};
  const util::Cli cli(2, argv);
  EXPECT_EXIT((void)cli.get_path("resume", ""),
              ::testing::ExitedWithCode(2), "is not a path");
}

}  // namespace
}  // namespace osmosis
