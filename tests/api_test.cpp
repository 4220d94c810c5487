// Tests for the serving front-end (DESIGN.md §14): tagged matching
// (exact, wildcard, unexpected-queue ordering), bounded completion
// queues with overrun accounting, the MR registry's key/bounds checks,
// ServeSim end-to-end operation (two-sided sends, one-sided RMA, the
// offered == accepted + shed >= delivered ledger), open-loop arrival
// rates, deterministic campaign documents at 1 vs 8 threads, and
// mid-run checkpoint/resume with tagged sends still in flight.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/completion.hpp"
#include "src/api/endpoint.hpp"
#include "src/api/memory.hpp"
#include "src/api/openloop.hpp"
#include "src/api/serve_sim.hpp"
#include "src/ckpt/ckpt.hpp"
#include "src/exec/campaign_runner.hpp"
#include "src/sim/rng.hpp"

namespace osmosis::api {
namespace {

// ---- Endpoint: tagged matching --------------------------------------------

InboundMsg msg(std::uint64_t op_id, int src, std::uint64_t tag) {
  InboundMsg m;
  m.op_id = op_id;
  m.src = src;
  m.tag = tag;
  m.bytes = 64.0;
  return m;
}

TaggedRecv recv(std::uint64_t tag, std::uint64_t ignore_mask,
                std::uint64_t context) {
  TaggedRecv r;
  r.tag = tag;
  r.ignore_mask = ignore_mask;
  r.context = context;
  return r;
}

TEST(Endpoint, ExactMatchRequiresEveryBit) {
  EXPECT_TRUE(Endpoint::matches(recv(0xABCD, 0, 0), 0xABCD));
  EXPECT_FALSE(Endpoint::matches(recv(0xABCD, 0, 0), 0xABCC));
  // Wildcard: every bit ignored matches anything.
  EXPECT_TRUE(Endpoint::matches(recv(0, ~std::uint64_t{0}, 0), 0xDEAD));
  // Partial mask: low byte ignored, high bits must agree.
  EXPECT_TRUE(Endpoint::matches(recv(0xAB00, 0xFF, 0), 0xAB42));
  EXPECT_FALSE(Endpoint::matches(recv(0xAB00, 0xFF, 0), 0xAC42));
}

TEST(Endpoint, PostedRecvsMatchInPostOrder) {
  Endpoint ep(3);
  TaggedRecv out;
  // Two receives that both match tag 7; the first-posted one must win.
  ep.post_recv(recv(7, 0, /*context=*/100), nullptr);
  ep.post_recv(recv(7, 0, /*context=*/200), nullptr);
  ASSERT_TRUE(ep.on_message(msg(1, 0, 7), &out));
  EXPECT_EQ(out.context, 100u);
  ASSERT_TRUE(ep.on_message(msg(2, 0, 7), &out));
  EXPECT_EQ(out.context, 200u);
  EXPECT_EQ(ep.posted_recvs(), 0u);
  EXPECT_EQ(ep.recv_matches(), 2u);
}

TEST(Endpoint, FirstMatchingRecvWinsNotFirstPosted) {
  Endpoint ep(0);
  TaggedRecv out;
  ep.post_recv(recv(5, 0, 100), nullptr);  // does not match tag 9
  ep.post_recv(recv(9, 0, 200), nullptr);
  ASSERT_TRUE(ep.on_message(msg(1, 2, 9), &out));
  EXPECT_EQ(out.context, 200u);
  EXPECT_EQ(ep.posted_recvs(), 1u);  // the tag-5 recv stays armed
}

TEST(Endpoint, UnexpectedQueueDrainsInArrivalOrder) {
  Endpoint ep(1);
  TaggedRecv rout;
  // Three messages land with nothing posted: all go unexpected.
  EXPECT_FALSE(ep.on_message(msg(10, 0, 7), &rout));
  EXPECT_FALSE(ep.on_message(msg(11, 0, 9), &rout));
  EXPECT_FALSE(ep.on_message(msg(12, 0, 7), &rout));
  EXPECT_EQ(ep.unexpected_depth(), 3u);
  EXPECT_EQ(ep.unexpected_peak(), 3u);
  // A wildcard recv consumes the OLDEST unexpected message, not the
  // newest and not a tag-preferred one.
  InboundMsg mout;
  ASSERT_TRUE(ep.post_recv(recv(0, ~std::uint64_t{0}, 0), &mout));
  EXPECT_EQ(mout.op_id, 10u);
  // An exact recv for tag 7 skips the tag-9 message and takes op 12.
  ASSERT_TRUE(ep.post_recv(recv(7, 0, 0), &mout));
  EXPECT_EQ(mout.op_id, 12u);
  EXPECT_EQ(ep.unexpected_depth(), 1u);
  EXPECT_EQ(ep.unexpected_matches(), 2u);
}

TEST(Endpoint, StateRoundTripsThroughCheckpoint) {
  Endpoint ep(2);
  ep.post_recv(recv(1, 0, 11), nullptr);
  TaggedRecv rout;
  ep.on_message(msg(5, 3, 99), &rout);  // unexpected
  ckpt::Sink sink;
  ep.io_state(sink);

  Endpoint back;
  ckpt::Source src(sink.bytes());
  back.io_state(src);
  EXPECT_EQ(back.port(), 2);
  EXPECT_EQ(back.posted_recvs(), 1u);
  EXPECT_EQ(back.unexpected_depth(), 1u);
  InboundMsg mout;
  ASSERT_TRUE(back.post_recv(recv(99, 0, 0), &mout));
  EXPECT_EQ(mout.op_id, 5u);
}

// ---- CompletionQueue -------------------------------------------------------

Completion comp(std::uint64_t op_id) {
  Completion c;
  c.op_id = op_id;
  return c;
}

TEST(CompletionQueue, FifoOrderAndOverrunAccounting) {
  CompletionQueue q(2);
  EXPECT_TRUE(q.push(comp(1)));
  EXPECT_TRUE(q.push(comp(2)));
  EXPECT_FALSE(q.push(comp(3)));  // full: dropped, counted
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.overruns(), 1u);
  EXPECT_EQ(q.peak_depth(), 2u);

  Completion out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.op_id, 1u);  // the overrun dropped entry 3, not entry 1
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.op_id, 2u);
  EXPECT_FALSE(q.pop(out));
  EXPECT_EQ(q.pushed(), 2u);
  EXPECT_EQ(q.popped(), 2u);
}

// ---- MemoryRegistry --------------------------------------------------------

TEST(MemoryRegistry, KeysStartAtOneAndNeverRecycle) {
  MemoryRegistry mr;
  const std::uint64_t a = mr.register_region(0, 4096);
  const std::uint64_t b = mr.register_region(1, 4096);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_TRUE(mr.deregister(a));
  EXPECT_EQ(mr.register_region(0, 64), 3u);  // freed key 1 is not reused
  EXPECT_EQ(mr.check(a, 0, 0, 8.0), RmaVerdict::kBadKey);  // stale key
}

TEST(MemoryRegistry, ChecksOwnershipAndBounds) {
  MemoryRegistry mr;
  const std::uint64_t key = mr.register_region(/*port=*/2, /*length=*/1024);
  EXPECT_EQ(mr.check(key, 2, 0, 1024.0), RmaVerdict::kOk);
  EXPECT_EQ(mr.check(key, 3, 0, 8.0), RmaVerdict::kBadKey);  // wrong port
  EXPECT_EQ(mr.check(key, 2, 1020, 8.0), RmaVerdict::kBadBounds);
  EXPECT_EQ(mr.bad_key(), 1u);
  EXPECT_EQ(mr.bad_bounds(), 1u);
}

// ---- ServeSim: manual API end to end ---------------------------------------

ServeSimConfig manual_config(int ports = 4) {
  ServeSimConfig cfg;
  cfg.sw.ports = ports;
  cfg.sw.sched.ports = ports;
  cfg.sw.warmup_slots = 0;
  cfg.sw.measure_slots = 400;
  cfg.sw.drain_max_slots = 2'000;
  return cfg;  // openloop.clients == 0: manual API only
}

TEST(ServeSim, TaggedSendMatchesPostedRecvAndLedgersBalance) {
  ServeSim sim(manual_config());
  sim.post_recv(/*port=*/1, /*tag=*/42, /*ignore_mask=*/0, /*context=*/7);
  const std::uint64_t op =
      sim.send_tagged(/*src=*/0, /*dst=*/1, /*tag=*/42, /*bytes=*/64.0,
                      /*context=*/123);
  ASSERT_GT(op, 0u);
  const ServeSimResult r = sim.run();

  EXPECT_EQ(r.offered, 1u);
  EXPECT_EQ(r.accepted, 1u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.sends, 1u);
  EXPECT_EQ(r.cq_overruns, 0u);

  Completion c;
  ASSERT_TRUE(sim.tx_cq(0).pop(c));
  EXPECT_EQ(c.op_id, op);
  EXPECT_EQ(c.kind, CompletionKind::kSend);
  EXPECT_EQ(c.peer, 1);
  ASSERT_TRUE(sim.rx_cq(1).pop(c));
  EXPECT_EQ(c.op_id, op);
  EXPECT_EQ(c.kind, CompletionKind::kRecv);
  EXPECT_EQ(c.context, 7u);  // the receive's cookie, not the sender's
  EXPECT_EQ(c.tag, 42u);
}

TEST(ServeSim, UnmatchedSendParksInUnexpectedQueue) {
  ServeSim sim(manual_config());
  sim.send_tagged(0, 1, /*tag=*/5, 64.0);
  sim.run();
  Completion c;
  EXPECT_FALSE(sim.rx_cq(1).pop(c));  // no recv was ever posted
  EXPECT_EQ(sim.endpoint(1).unexpected_depth(), 1u);
  // Late recv still finds it.
  sim.post_recv(1, 5, 0, /*context=*/9);
  ASSERT_TRUE(sim.rx_cq(1).pop(c));
  EXPECT_EQ(c.context, 9u);
}

TEST(ServeSim, RmaWriteValidatesAtTargetAndRmaReadRoundTrips) {
  ServeSim sim(manual_config());
  const std::uint64_t key = sim.register_mr(/*port=*/2, /*length=*/4096);
  const std::uint64_t w_ok = sim.rma_write(0, 2, key, 0, 256.0);
  const std::uint64_t w_bad = sim.rma_write(1, 2, key, 4000, 256.0);  // OOB
  const std::uint64_t rd = sim.rma_read(3, 2, key, 128, 256.0);
  ASSERT_GT(w_ok, 0u);
  ASSERT_GT(w_bad, 0u);
  ASSERT_GT(rd, 0u);
  const ServeSimResult r = sim.run();

  EXPECT_EQ(r.rma_writes, 2u);
  EXPECT_EQ(r.rma_reads, 1u);
  EXPECT_EQ(r.rma_errors, 1u);
  EXPECT_EQ(r.offered, 3u);
  EXPECT_EQ(r.delivered, 3u);

  Completion c;
  ASSERT_TRUE(sim.tx_cq(0).pop(c));
  EXPECT_EQ(c.kind, CompletionKind::kRmaWrite);
  EXPECT_EQ(c.status, CompletionStatus::kOk);
  ASSERT_TRUE(sim.tx_cq(1).pop(c));
  EXPECT_EQ(c.kind, CompletionKind::kRmaWrite);
  EXPECT_EQ(c.status, CompletionStatus::kRmaError);
  ASSERT_TRUE(sim.tx_cq(3).pop(c));
  EXPECT_EQ(c.kind, CompletionKind::kRmaRead);
  EXPECT_EQ(c.status, CompletionStatus::kOk);
  EXPECT_EQ(c.op_id, rd);  // the read's own id, not the response op's

  const MemoryRegion* region = sim.memory().find(key);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->writes, 1u);
  EXPECT_EQ(region->reads, 1u);
}

TEST(ServeSim, CqOverrunDropsNotificationNeverAccounting) {
  ServeSimConfig cfg = manual_config();
  cfg.cq_capacity = 2;
  ServeSim sim(cfg);
  for (int i = 0; i < 6; ++i)
    sim.send_tagged(0, 1, static_cast<std::uint64_t>(i), 64.0);
  const ServeSimResult r = sim.run();
  // All six sends settle (the ledger is out-of-band), but only two tx
  // completions fit; the other four are overruns.
  EXPECT_EQ(r.delivered, 6u);
  EXPECT_EQ(sim.tx_cq(0).overruns(), 4u);
  EXPECT_GE(r.cq_overruns, 4u);
  EXPECT_EQ(sim.endpoint(1).unexpected_peak(), 6u);
}

// ---- ServeSim: open-loop driver mode ---------------------------------------

ServeSimConfig driver_config(std::int64_t clients, ArrivalKind arrival,
                             std::uint64_t seed) {
  ServeSimConfig cfg;
  cfg.sw.ports = 8;
  cfg.sw.sched.ports = 8;
  cfg.sw.warmup_slots = 100;
  cfg.sw.measure_slots = 600;
  cfg.sw.drain_max_slots = 5'000;
  cfg.seed = seed;
  cfg.openloop.clients = clients;
  cfg.openloop.arrival = arrival;
  cfg.openloop.load = 0.5;
  return cfg;
}

TEST(ServeSim, OpenLoopLedgerIsConserved) {
  ServeSim sim(driver_config(2'000, ArrivalKind::kPoisson, 0xBEEF));
  const ServeSimResult r = sim.run();
  EXPECT_GT(r.offered, 0u);
  EXPECT_EQ(r.offered, r.accepted + r.shed);
  EXPECT_GE(r.accepted, r.delivered);
  EXPECT_EQ(r.offered, r.sends + r.rma_writes + r.rma_reads + r.shed);
  EXPECT_GT(r.p999_latency + 1.0, r.p99_latency);  // quantiles monotone
}

TEST(ServeSim, SameSeedSameConfigIsByteIdentical) {
  ServeSim a(driver_config(1'000, ArrivalKind::kMmpp, 0x5EED));
  ServeSim b(driver_config(1'000, ArrivalKind::kMmpp, 0x5EED));
  a.run();
  b.run();
  EXPECT_EQ(a.report().to_json(2), b.report().to_json(2));
}

TEST(OpenLoopDriver, ArrivalProcessesHitTheConfiguredMeanRate) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kMmpp,
                           ArrivalKind::kDiurnal}) {
    OpenLoopConfig cfg;
    cfg.clients = 10'000;
    cfg.arrival = kind;
    cfg.load = 0.5;
    cfg.diurnal_period_slots = 2'048.0;  // whole periods average out
    OpenLoopDriver drv(cfg, /*ports=*/8, /*cells_per_request=*/3, 0xA11CE);
    std::vector<Request> batch;
    std::uint64_t total = 0;
    const std::uint64_t slots = 8'192;
    for (std::uint64_t s = 0; s < slots; ++s) {
      drv.poll(s, batch);
      total += batch.size();
      for (const Request& r : batch) {
        EXPECT_GE(r.src, 0);
        EXPECT_LT(r.src, 8);
        EXPECT_GE(r.dst, 0);
        EXPECT_LT(r.dst, 8);
        EXPECT_NE(r.src, r.dst);
        EXPECT_GE(r.tenant, 0);
        EXPECT_LT(r.tenant, cfg.tenants);
        EXPECT_GE(r.client, 0);
        EXPECT_LT(r.client, cfg.clients);
      }
    }
    const double empirical =
        static_cast<double>(total) / static_cast<double>(slots);
    EXPECT_NEAR(empirical, drv.mean_rate(), 0.15 * drv.mean_rate())
        << "arrival kind " << to_string(kind);
  }
}

TEST(OpenLoopDriver, SnapshotHoldsThePerClientArraysAsPlainVectors) {
  // The per-client arrays live in their own mappings, yet the snapshot
  // holds each as a u64 count and its u32s, exactly as ckpt::field
  // writes a std::vector<std::uint32_t>.
  OpenLoopConfig cfg;
  cfg.clients = 1'000;
  OpenLoopDriver drv(cfg, /*ports=*/8, /*cells_per_request=*/3, 0xA11CE);
  std::vector<Request> batch;
  std::vector<std::int64_t> issued_by;
  for (std::uint64_t s = 0; s < 64; ++s) {
    drv.poll(s, batch);
    for (const Request& r : batch) {
      drv.note_issue(r.client);
      issued_by.push_back(r.client);
    }
  }
  ASSERT_GT(issued_by.size(), 2u);
  for (std::size_t i = 0; i < issued_by.size(); i += 2)
    drv.note_complete(issued_by[i]);
  ckpt::Sink got;
  drv.io_state(got);

  std::vector<std::uint32_t> issued, completed;
  for (std::int64_t c = 0; c < cfg.clients; ++c) {
    issued.push_back(static_cast<std::uint32_t>(drv.issued(c)));
    completed.push_back(static_cast<std::uint32_t>(drv.completed(c)));
  }
  // The generator state and modulator flag come first; take them from
  // the snapshot itself.
  ckpt::Source head(got.bytes());
  sim::Rng rng;
  bool burst = false;
  ckpt::field(head, rng);
  ckpt::field(head, burst);
  std::int64_t active = drv.active_clients();
  std::uint32_t widest = drv.max_outstanding();
  ckpt::Sink want;
  ckpt::field(want, rng);
  ckpt::field(want, burst);
  ckpt::field(want, issued);
  ckpt::field(want, completed);
  ckpt::field(want, active);
  ckpt::field(want, widest);
  EXPECT_EQ(got.bytes(), want.bytes());

  OpenLoopDriver back(cfg, 8, 3, 0);
  ckpt::Source src(got.bytes());
  back.io_state(src);
  src.expect_end();
  for (std::int64_t c = 0; c < cfg.clients; ++c) {
    EXPECT_EQ(back.issued(c), drv.issued(c));
    EXPECT_EQ(back.completed(c), drv.completed(c));
  }
}

// ---- determinism across campaign thread counts -----------------------------

exec::CampaignSpec small_serve_spec() {
  exec::CampaignSpec spec;
  spec.name = "serve_threads_test";
  spec.sims = {exec::SimKind::kServe};
  spec.ports = {8};
  spec.receivers = {2};
  spec.loads = {0.5};
  spec.clients = {500};
  spec.arrivals = {ArrivalKind::kPoisson, ArrivalKind::kMmpp};
  spec.warmup_slots = 100;
  spec.measure_slots = 500;
  spec.campaign_seed = 0x5E12'7E;
  return spec;
}

TEST(ServeCampaign, DocumentIsByteIdenticalAtOneAndEightThreads) {
  const exec::CampaignSpec spec = small_serve_spec();
  exec::RunnerOptions one;
  one.threads = 1;
  exec::RunnerOptions eight;
  eight.threads = 8;
  const std::string a =
      exec::CampaignRunner(one).run(spec).to_json(2, /*include_timing=*/false);
  const std::string b =
      exec::CampaignRunner(eight).run(spec).to_json(2, false);
  EXPECT_EQ(a, b);
  // Serve rows carry the serving axes and latency-tail metrics.
  EXPECT_NE(a.find("\"arrival\""), std::string::npos);
  EXPECT_NE(a.find("\"p999_latency\""), std::string::npos);
}

// ---- mid-run checkpoint/resume ---------------------------------------------

TEST(ServeSim, CheckpointWithTaggedSendsInFlightResumesByteIdentical) {
  // Multi-cell sends issued right before the snapshot guarantee the
  // snapshot carries segmenter backlog and unsettled ops.
  ServeSimConfig cfg = manual_config();
  ServeSim sim(cfg);
  for (int i = 0; i < 3; ++i) sim.post_recv(1, 7, 0, 100 + i);
  for (int s = 0; s < 4; ++s) ASSERT_TRUE(sim.advance_slot());
  const int srcs[] = {0, 2, 3};
  for (int i = 0; i < 3; ++i)
    sim.send_tagged(srcs[i], /*dst=*/1, /*tag=*/7, /*bytes=*/600.0,
                    /*context=*/static_cast<std::uint64_t>(i));
  sim.rma_read(2, 0, sim.register_mr(0, 4096), 0, 256.0);
  ASSERT_TRUE(sim.advance_slot());  // first cells leave, ops in flight
  ASSERT_GT(sim.ops_in_flight(), 0u);

  ckpt::Writer w;
  sim.save_state(w);
  const std::string bytes = w.serialize();

  // Restored copy (fresh object, same construction config) and the
  // original must finish the run with byte-identical reports.
  ServeSim restored(cfg);
  restored.load_state(ckpt::Reader::from_bytes(bytes));
  EXPECT_EQ(restored.ops_in_flight(), sim.ops_in_flight());
  EXPECT_EQ(restored.current_slot(), sim.current_slot());

  while (sim.advance_slot()) {
  }
  while (restored.advance_slot()) {
  }
  sim.finalize();
  restored.finalize();
  EXPECT_EQ(sim.report().to_json(2), restored.report().to_json(2));
  EXPECT_EQ(restored.serving_report().summary.at("delivered"), 4.0);
}

TEST(ServeSim, DriverModeCheckpointResumesByteIdentical) {
  const ServeSimConfig cfg =
      driver_config(1'000, ArrivalKind::kDiurnal, 0xD1DA);
  ServeSim sim(cfg);
  for (int s = 0; s < 250; ++s) ASSERT_TRUE(sim.advance_slot());

  ckpt::Writer w;
  sim.save_state(w);
  const std::string bytes = w.serialize();

  ServeSim restored(cfg);
  restored.load_state(ckpt::Reader::from_bytes(bytes));
  while (sim.advance_slot()) {
  }
  while (restored.advance_slot()) {
  }
  sim.finalize();
  restored.finalize();
  EXPECT_EQ(sim.report().to_json(2), restored.report().to_json(2));
}

}  // namespace
}  // namespace osmosis::api
