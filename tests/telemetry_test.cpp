// Tests for the telemetry layer: trace-ring wraparound, deterministic
// 1-in-N sampling, the stage-latency decomposition invariant (the three
// lifecycle legs must sum to the end-to-end delay, per simulator), and
// the RunReport JSON round trip.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/faults/fault_plan.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/event_switch_sim.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/telemetry/json.hpp"
#include "src/telemetry/run_report.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/telemetry/trace.hpp"
#include "src/topo/topo_sim.hpp"

namespace osmosis::telemetry {
namespace {

// ---- TraceRing -------------------------------------------------------------

TEST(TraceRing, FillsThenWrapsOverwritingOldest) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 3; ++i) {
    CellSpan s;
    s.trace_seq = i;
    ring.push(s);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.at(0).trace_seq, 0u);
  EXPECT_EQ(ring.at(2).trace_seq, 2u);

  for (std::uint64_t i = 3; i < 10; ++i) {
    CellSpan s;
    s.trace_seq = i;
    ring.push(s);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 10u);
  // Oldest retained is seq 6, newest seq 9.
  EXPECT_EQ(ring.at(0).trace_seq, 6u);
  EXPECT_EQ(ring.at(3).trace_seq, 9u);
}

// ---- CellTrace -------------------------------------------------------------

TEST(CellTrace, SamplesOneInN) {
  CellTrace trace(64, 4);
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    const std::int32_t h = trace.begin(0, 1, static_cast<double>(i));
    if (h >= 0) {
      ++sampled;
      trace.end(h, static_cast<double>(i) + 1.0);
    }
  }
  EXPECT_EQ(sampled, 25);
  EXPECT_EQ(trace.cells_seen(), 100u);
  EXPECT_EQ(trace.cells_sampled(), 25u);
  EXPECT_EQ(trace.cells_dropped(), 0u);
}

TEST(CellTrace, FcHoldAndRetransmitAccumulate) {
  CellTrace trace(8, 1);
  const std::int32_t h = trace.begin(2, 3, 10.0);
  ASSERT_GE(h, 0);
  trace.mark(h, Stage::kRequest, 11.0);
  trace.mark(h, Stage::kGrant, 12.0);
  trace.mark(h, Stage::kTransmit, 13.0);
  trace.fc_hold(h);
  trace.fc_hold(h, 3);
  trace.retransmit(h);
  const CellSpan s = trace.end(h, 20.0);
  EXPECT_EQ(s.fc_hold_cycles, 4u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_DOUBLE_EQ(s.end_to_end(), 10.0);
  EXPECT_DOUBLE_EQ(s.request_to_grant() + s.grant_to_transmit() +
                       s.transmit_to_deliver(),
                   s.end_to_end());
}

TEST(CellTrace, MarkFirstKeepsEarliestStamp) {
  CellTrace trace(8, 1);
  const std::int32_t h = trace.begin(0, 0, 0.0);
  ASSERT_GE(h, 0);
  trace.mark_first(h, Stage::kGrant, 5.0);
  trace.mark_first(h, Stage::kGrant, 9.0);  // ignored: already stamped
  trace.mark(h, Stage::kTransmit, 9.0);
  trace.mark(h, Stage::kTransmit, 11.0);  // overwrite: last wins
  const CellSpan s = trace.end(h, 12.0);
  EXPECT_DOUBLE_EQ(s.at(Stage::kGrant), 5.0);
  EXPECT_DOUBLE_EQ(s.at(Stage::kTransmit), 11.0);
}

TEST(CellTrace, DropsWhenOpenPoolExhausted) {
  CellTrace trace(8, 1, /*max_open_spans=*/2);
  const std::int32_t a = trace.begin(0, 0, 0.0);
  const std::int32_t b = trace.begin(0, 0, 1.0);
  const std::int32_t c = trace.begin(0, 0, 2.0);  // no slot left
  EXPECT_GE(a, 0);
  EXPECT_GE(b, 0);
  EXPECT_EQ(c, -1);
  EXPECT_EQ(trace.cells_dropped(), 1u);
  trace.end(a, 3.0);
  EXPECT_GE(trace.begin(0, 0, 4.0), 0);  // slot recycled
}

TEST(Telemetry, DisabledIsInertAndFree) {
  Telemetry t;  // default: disabled
  EXPECT_FALSE(t.enabled());
  const std::int32_t h = t.begin_cell(0, 1, 0.0);
  EXPECT_EQ(h, -1);
  t.mark(h, Stage::kGrant, 1.0);
  t.finish_cell(h, 2.0, true);  // all no-ops
  EXPECT_EQ(t.trace().cells_seen(), 0u);
  EXPECT_EQ(t.stages().count(), 0u);
}

// ---- deterministic sampling under a fixed seed -----------------------------

std::string switch_report_json(std::uint32_t sample_every) {
  sw::SwitchSimConfig cfg;
  cfg.ports = 16;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = sample_every;
  sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.6, 0x1234));
  sim.run();
  return sim.report().to_json();
}

TEST(Telemetry, SamplingIsDeterministicUnderFixedSeed) {
  const std::string a = switch_report_json(4);
  const std::string b = switch_report_json(4);
  EXPECT_EQ(a, b);  // bitwise-identical export, traces included
}

TEST(Telemetry, SampleEveryControlsSampledCount) {
  sw::SwitchSimConfig cfg;
  cfg.ports = 16;
  cfg.warmup_slots = 100;
  cfg.measure_slots = 1'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 8;
  sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.5, 7));
  sim.run();
  const auto& trace = sim.telemetry().trace();
  EXPECT_GT(trace.cells_seen(), 0u);
  // Exactly ceil(seen / 8) sampled (counter-based, no RNG involved).
  EXPECT_EQ(trace.cells_sampled(), (trace.cells_seen() + 7) / 8);
}

// ---- stage decomposition sums to end-to-end, per simulator -----------------

TEST(StageDecomposition, SwitchSimLegsSumToMeanDelay) {
  sw::SwitchSimConfig cfg;
  cfg.ports = 16;
  cfg.warmup_slots = 500;
  cfg.measure_slots = 5'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 1;  // trace every cell
  sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.7, 99));
  const auto result = sim.run();

  const auto& stages = sim.telemetry().stages();
  ASSERT_GT(stages.count(), 0u);
  // The three legs telescope per cell, so their means sum to the
  // end-to-end mean...
  EXPECT_NEAR(stages.decomposition_mean(), stages.end_to_end().mean(), 1e-9);
  // ...and with every cell traced, the stage book's end-to-end mean is
  // the simulator's reported mean delay over the same population.
  EXPECT_EQ(stages.count(), result.delivered);
  EXPECT_NEAR(stages.end_to_end().mean(), result.mean_delay, 1e-9);
  // The crossbar leg is exactly the one-cycle transfer.
  EXPECT_DOUBLE_EQ(stages.grant_to_transmit().mean(), 1.0);
}

TEST(StageDecomposition, EventSwitchSimLegsSumToMeanDelayNs) {
  sw::EventSwitchConfig cfg;
  cfg.ports = 8;
  cfg.default_ctrl_ns = 100.0;
  cfg.warmup_ns = 20'000.0;
  cfg.measure_ns = 100'000.0;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 1;
  sw::EventSwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.5, 42));
  const auto result = sim.run();

  const auto& stages = sim.telemetry().stages();
  ASSERT_GT(stages.count(), 0u);
  EXPECT_NEAR(stages.decomposition_mean(), stages.end_to_end().mean(), 1e-6);
  EXPECT_EQ(stages.count(), result.delivered);
  EXPECT_NEAR(stages.end_to_end().mean(), result.mean_delay_ns, 1e-6);
}

// The leaf-spine fabric: TopoSim's two-level fat-tree preset.
TEST(StageDecomposition, FabricSimLegsSumToMeanDelaySlots) {
  topo::TopoSimConfig cfg = topo::leaf_spine_config(4);
  cfg.warmup_slots = 500;
  cfg.measure_slots = 5'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 1;
  topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.5, 11));
  const auto result = sim.run();

  const auto& stages = sim.telemetry().stages();
  ASSERT_GT(stages.count(), 0u);
  EXPECT_NEAR(stages.decomposition_mean(), stages.end_to_end().mean(), 1e-9);
  EXPECT_EQ(stages.count(), result.delivered);
  EXPECT_NEAR(stages.end_to_end().mean(), result.mean_delay_slots, 1e-9);
  // The final leg is at least the last cable flight.
  EXPECT_GE(stages.transmit_to_deliver().min(), topo::kHostCableSlots);
  // Exact per-leg populations and means.
  EXPECT_EQ(result.delivered, 19884u);
  EXPECT_EQ(result.mean_delay_slots, 8.6475558237778554);
  EXPECT_EQ(stages.request_to_grant().count(), 19884u);
  EXPECT_EQ(stages.grant_to_transmit().count(), 19884u);
  EXPECT_EQ(stages.transmit_to_deliver().count(), 19884u);
  EXPECT_EQ(stages.request_to_grant().mean(), 1.233856366928183);
  EXPECT_EQ(stages.grant_to_transmit().mean(), 6.4136994568497601);
  EXPECT_EQ(stages.transmit_to_deliver().mean(), 1.0);
  EXPECT_EQ(stages.end_to_end().mean(), 8.6475558237778554);
}

// ---- RunReport JSON ---------------------------------------------------------

TEST(RunReport, JsonRoundTripPreservesEverything) {
  sw::SwitchSimConfig cfg;
  cfg.ports = 8;
  cfg.warmup_slots = 100;
  cfg.measure_slots = 1'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 2;
  sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.4, 5));
  sim.run();
  RunReport r = sim.report();
  r.health.push_back("scheduler: ok");

  const std::string text = r.to_json();
  const RunReport back = RunReport::from_json(text);
  EXPECT_EQ(back.sim, "SwitchSim");
  EXPECT_EQ(back.time_unit, "cycles");
  EXPECT_EQ(back.config, r.config);
  EXPECT_EQ(back.info, r.info);
  EXPECT_EQ(back.counters, r.counters);
  EXPECT_EQ(back.health, r.health);
  ASSERT_EQ(back.histograms.size(), r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    ASSERT_TRUE(back.histograms.count(name)) << name;
    const auto& b = back.histograms.at(name);
    EXPECT_EQ(b.count, h.count);
    EXPECT_DOUBLE_EQ(b.mean, h.mean);
    EXPECT_DOUBLE_EQ(b.p99, h.p99);
  }
  // Serialization is deterministic.
  EXPECT_EQ(back.to_json(), text);
}

TEST(RunReport, EmittedDocumentHasTheSchemaKeys) {
  sw::SwitchSimConfig cfg;
  cfg.ports = 8;
  cfg.warmup_slots = 50;
  cfg.measure_slots = 500;
  cfg.telemetry.enabled = true;
  sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.3, 5));
  sim.run();

  const JsonValue doc = json_parse(sim.report().to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").str, RunReport::kSchema);
  for (const char* key :
       {"sim", "time_unit", "config", "info", "counters", "histograms",
        "health"})
    EXPECT_TRUE(doc.has(key)) << key;
  for (const char* h :
       {"stage.request_to_grant", "stage.grant_to_transmit",
        "stage.transmit_to_deliver", "stage.end_to_end", "delay",
        "grant_latency"}) {
    ASSERT_TRUE(doc.at("histograms").has(h)) << h;
    for (const char* field : {"count", "mean", "min", "p50", "p99", "max"})
      EXPECT_TRUE(doc.at("histograms").at(h).has(field)) << h << "." << field;
  }
  EXPECT_TRUE(doc.at("counters").has("trace.cells_seen"));
  EXPECT_TRUE(doc.at("counters").has("switch.delivered"));
  EXPECT_TRUE(doc.at("counters").has("ingress.0.enqueued"));
}

TEST(RunReport, AllThreeSimulatorsEmitTheCommonSchema) {
  std::vector<std::string> docs;

  {
    sw::SwitchSimConfig cfg;
    cfg.ports = 8;
    cfg.warmup_slots = 50;
    cfg.measure_slots = 500;
    cfg.telemetry.enabled = true;
    sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.3, 5));
    sim.run();
    docs.push_back(sim.report().to_json());
  }
  {
    sw::EventSwitchConfig cfg;
    cfg.ports = 8;
    cfg.warmup_ns = 5'000.0;
    cfg.measure_ns = 30'000.0;
    cfg.telemetry.enabled = true;
    sw::EventSwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.3, 5));
    sim.run();
    docs.push_back(sim.report().to_json());
  }
  {
    topo::TopoSimConfig cfg = topo::leaf_spine_config(4);
    cfg.warmup_slots = 200;
    cfg.measure_slots = 2'000;
    cfg.telemetry.enabled = true;
    topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.3, 5));
    sim.run();
    docs.push_back(sim.report().to_json());
  }

  for (const auto& text : docs) {
    const JsonValue doc = json_parse(text);
    EXPECT_EQ(doc.at("schema").str, RunReport::kSchema);
    for (const char* h :
         {"stage.request_to_grant", "stage.grant_to_transmit",
          "stage.transmit_to_deliver", "stage.end_to_end"}) {
      ASSERT_TRUE(doc.at("histograms").has(h)) << doc.at("sim").str;
      EXPECT_GT(doc.at("histograms").at(h).at("count").number, 0.0)
          << doc.at("sim").str << " " << h;
    }
  }
}

TEST(RunReport, FabricRollupSubtotalsMatchPerSwitchCounters) {
  // Radix 4: leaves are switches 0..3 (stage 1), spines 4..5 (stage 2).
  topo::TopoSimConfig cfg = topo::leaf_spine_config(4);
  cfg.warmup_slots = 200;
  cfg.measure_slots = 2'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.timeseries.enabled = true;
  cfg.telemetry.timeseries.every_slots = 64;
  topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.4, 17));
  sim.run();

  const auto& ctr = sim.telemetry().counters();
  double leaf_sum = 0.0;
  for (int s = 0; s < 4; ++s)
    leaf_sum += ctr.value("stage.1.switch." + std::to_string(s) + ".grants");
  EXPECT_DOUBLE_EQ(ctr.value("rollup.stage.1.grants"), leaf_sum);
  EXPECT_GT(leaf_sum, 0.0);
  EXPECT_EQ(ctr.value("rollup.stage.1.grants"), 12223.0);
  EXPECT_EQ(ctr.value("rollup.stage.2.grants"), 5239.0);
  // FC backpressure shows up both per-cell (trace spans) and globally.
  EXPECT_TRUE(ctr.has("fc.host_hold_cycles"));
  EXPECT_TRUE(ctr.has("fc.blocked_output_cycles"));
  // One time-series row per 64 slots of the 2,200-slot run.
  EXPECT_EQ(sim.telemetry().series().size(), 35u);
}

TEST(RunReport, FabricFlowControlCountersArePinned) {
  // The 128-host leaf-spine tree near saturation with spine 1 frozen
  // for 400 slots, then drained: leaf uplinks toward the frozen spine
  // and toward credit-starved buffers block, and hosts hold their head
  // cells. The values were computed with a flow-control pass that
  // blocked or unblocked every out port of every switch every slot.
  struct Pin {
    topo::FcKind fc;
    double blocked_output_cycles;
    double host_hold_cycles;
  };
  const Pin pins[] = {{topo::FcKind::kCredit, 12'715.0, 60'393.0},
                      {topo::FcKind::kRelayed, 9'997.0, 56'810.0}};
  for (const Pin& p : pins) {
    topo::TopoSimConfig cfg = topo::leaf_spine_config(16);
    cfg.fc.kind = p.fc;
    cfg.warmup_slots = 200;
    cfg.measure_slots = 3'000;
    cfg.drain_max_slots = 50'000;
    cfg.telemetry.enabled = true;
    faults::FaultEvent spine;
    spine.kind = faults::FaultKind::kPlaneFailure;
    spine.a = 1;
    spine.at_slot = 500;
    spine.duration_slots = 400;
    cfg.fault_plan.add(spine);
    cfg.fault_plan.seeded(1);
    topo::TopoSim sim(cfg, sim::make_uniform(cfg.hosts, 0.85, 99));
    sim.run();

    const auto& ctr = sim.telemetry().counters();
    const std::string what = topo::to_string(p.fc);
    EXPECT_EQ(ctr.value("fc.blocked_output_cycles"), p.blocked_output_cycles)
        << what;
    EXPECT_EQ(ctr.value("fc.host_hold_cycles"), p.host_hold_cycles) << what;
  }
}

// ---- JSON parser edge cases -------------------------------------------------

// ---- HistogramSummary tails (p999 / p9999) ---------------------------------

TEST(HistogramSummary, MergePreservesTailQuantilesExactly) {
  // The campaign aggregation invariant, extended to the new tail
  // columns: sharded collection + merge() must report the same
  // p50/p99/p999/p9999 as one histogram fed every sample.
  sim::Histogram a, b, combined;
  std::uint64_t x = 0x9E37'79B9'7F4A'7C15ULL;
  for (int i = 0; i < 30'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = static_cast<double>(x % 5'000) / 3.0;
    (i % 2 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Mean combines via the Welford merge formula: same value to within
  // reassociation ulps, not bit-identical to sequential adds.
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9 * combined.mean());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(a.p99(), combined.p99());
  EXPECT_DOUBLE_EQ(a.p999(), combined.p999());
  EXPECT_DOUBLE_EQ(a.p9999(), combined.p9999());

  const HistogramSummary sa = HistogramSummary::of(a);
  const HistogramSummary sc = HistogramSummary::of(combined);
  EXPECT_DOUBLE_EQ(sa.p999, sc.p999);
  EXPECT_DOUBLE_EQ(sa.p9999, sc.p9999);
  EXPECT_TRUE(sa.has_p9999());
  // Quantile ladder is monotone.
  EXPECT_LE(sa.p50, sa.p99);
  EXPECT_LE(sa.p99, sa.p999);
  EXPECT_LE(sa.p999, sa.p9999);
  EXPECT_LE(sa.p9999, sa.max);
}

TEST(HistogramSummary, P9999GatedOnSampleCount) {
  sim::Histogram small;
  for (int i = 0; i < 100; ++i) small.add(static_cast<double>(i));
  const HistogramSummary s = HistogramSummary::of(small);
  EXPECT_FALSE(s.has_p9999());
  EXPECT_EQ(s.p9999, 0.0);  // never emitted below kP9999MinCount
  EXPECT_GT(s.p999, 0.0);   // p999 is always carried

  sim::Histogram big;
  for (std::uint64_t i = 0; i < HistogramSummary::kP9999MinCount; ++i)
    big.add(static_cast<double>(i % 777));
  const HistogramSummary sb = HistogramSummary::of(big);
  EXPECT_TRUE(sb.has_p9999());
  EXPECT_GT(sb.p9999, 0.0);
}

TEST(HistogramSummary, JsonCarriesP999AndGatesP9999) {
  sim::Histogram small;
  for (int i = 0; i < 500; ++i) small.add(static_cast<double>(i % 90));
  JsonWriter ws(0);
  write_histogram_summary(ws, HistogramSummary::of(small));
  const JsonValue ds = json_parse(ws.str());
  EXPECT_TRUE(ds.has("p999"));
  EXPECT_FALSE(ds.has("p9999"));

  sim::Histogram big;
  for (int i = 0; i < 20'000; ++i) big.add(static_cast<double>(i % 90));
  JsonWriter wb(0);
  write_histogram_summary(wb, HistogramSummary::of(big));
  const JsonValue db = json_parse(wb.str());
  ASSERT_TRUE(db.has("p9999"));

  // Round trip through the parser preserves both tails bit-exactly.
  const HistogramSummary orig = HistogramSummary::of(big);
  const HistogramSummary back = parse_histogram_summary(db);
  EXPECT_DOUBLE_EQ(back.p999, orig.p999);
  EXPECT_DOUBLE_EQ(back.p9999, orig.p9999);
}

TEST(Json, ParsesEscapesAndNesting) {
  const JsonValue v = json_parse(
      R"({"a": [1, 2.5, -3e2], "s": "x\"y\\z\n", "t": true, "n": null})");
  EXPECT_DOUBLE_EQ(v.at("a").array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(v.at("a").array[2].number, -300.0);
  EXPECT_EQ(v.at("s").str, "x\"y\\z\n");
  EXPECT_TRUE(v.at("t").boolean);
  EXPECT_EQ(v.at("n").kind, JsonValue::Kind::kNull);
}

TEST(Json, EscapeRoundTrip) {
  const std::string nasty = "quote\" slash\\ newline\n tab\t ctrl\x01";
  const JsonValue v = json_parse("\"" + json_escape(nasty) + "\"");
  EXPECT_EQ(v.str, nasty);
}

// Regression: every control character U+0000..U+001F must leave
// json_escape as an escape sequence, never as a raw byte — a raw 0x1F
// (or NUL) in a string key renders the whole document unparseable for
// strict consumers like Perfetto. Exercised via JsonWriter, the path
// every report/trace string takes.
TEST(Json, EscapesAllControlCharacters) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  const std::string escaped = json_escape(all);
  for (const char c : escaped)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte leaked into escaped output";
  EXPECT_NE(escaped.find("\\u0000"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  EXPECT_NE(escaped.find("\\n"), std::string::npos);

  JsonWriter w(0);
  w.open('{');
  w.key(all);
  w.string(all);
  w.close('}');
  const JsonValue doc = json_parse(w.str());
  ASSERT_TRUE(doc.has(all));
  EXPECT_EQ(doc.at(all).str, all);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_DEATH(json_parse("{"), "");
  EXPECT_DEATH(json_parse("{} trailing"), "");
  EXPECT_DEATH(json_parse("[1,, 2]"), "");
}

}  // namespace
}  // namespace osmosis::telemetry
