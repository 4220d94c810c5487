// Tracked performance suite (DESIGN.md §11): measures raw simulation
// rate — cells/sec and slots/sec — for four engines (the `fabric` rows
// run TopoSim's leaf-spine preset) across a port sweep, the
// telemetry-on / telemetry-off overhead ratio for each configuration,
// and the cost of a disabled profiler scope relative to a simulator
// slot. Emits one osmosis.bench_perf.v1 JSON document
// (BENCH_perf.json by convention) stamped with build provenance, so a
// perf trajectory can be tracked commit over commit.
//
//   bench_perf [--smoke] [--json=<path>] [--trace=<path>]
//              [--sim-trace=<path>] [--report=<path>]
//
// --smoke shrinks the sweep to seconds (the CI shape; its key set is
// held against bench/baselines/BENCH_perf_smoke.json by
// schema_check --perf). The full sweep reaches the paper's 2048-port
// scale and is meant for manual runs on quiet machines.
//
// --trace / --sim-trace additionally run one small instrumented switch
// and write the wall-clock / sim-time Chrome trace (Perfetto-loadable);
// --report writes that run's RunReport with "profile" and "timeseries"
// attached. scripts/check.sh feeds all three to schema_check.
//
// The suite hard-fails (exit 1) when the disabled-profiler overhead
// estimate exceeds 2% of the cheapest measured simulator slot — the
// cost discipline that keeps OSMOSIS_PROF_SCOPE compiled into release
// binaries.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/campaign.hpp"
#include "src/fabric/multiplane.hpp"
#include "src/prof/profiler.hpp"
#include "src/prof/trace_export.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/event_switch_sim.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/telemetry/build_info.hpp"
#include "src/telemetry/json.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/cli.hpp"

using namespace osmosis;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Keeps the measured loops honest without pulling in google-benchmark.
inline void clobber() { asm volatile("" ::: "memory"); }

struct PerfRow {
  std::string sim;
  int ports = 0;           // host/port count (fabric: hosts = radix²/2)
  std::uint64_t slots = 0;
  std::uint64_t cells = 0;
  double wall_ms = 0.0;            // telemetry off
  double telemetry_wall_ms = 0.0;  // telemetry + time series on
};

telemetry::TelemetryConfig telemetry_on() {
  telemetry::TelemetryConfig t;
  t.enabled = true;
  t.sample_every = 4;
  t.timeseries.enabled = true;
  t.timeseries.every_slots = 64;
  return t;
}

PerfRow measure_switch(int ports, std::uint64_t slots) {
  PerfRow row{"switch", ports, slots, 0, 0.0, 0.0};
  for (const bool telemetry : {false, true}) {
    sw::SwitchSimConfig cfg;
    cfg.ports = ports;
    cfg.warmup_slots = slots / 10;
    cfg.measure_slots = slots - cfg.warmup_slots;
    if (telemetry) cfg.telemetry = telemetry_on();
    sw::SwitchSim sim(cfg, sim::make_uniform(ports, 0.6, 7));
    const auto t0 = Clock::now();
    const auto r = sim.run();
    (telemetry ? row.telemetry_wall_ms : row.wall_ms) = ms_since(t0);
    if (!telemetry) row.cells = r.offered;
  }
  return row;
}

PerfRow measure_event(int ports, std::uint64_t slots) {
  PerfRow row{"event", ports, slots, 0, 0.0, 0.0};
  for (const bool telemetry : {false, true}) {
    sw::EventSwitchConfig cfg;
    cfg.ports = ports;
    cfg.warmup_ns = static_cast<double>(slots / 10) * cfg.cell_ns;
    cfg.measure_ns = static_cast<double>(slots - slots / 10) * cfg.cell_ns;
    if (telemetry) cfg.telemetry = telemetry_on();
    sw::EventSwitchSim sim(cfg, sim::make_uniform(ports, 0.6, 7));
    const auto t0 = Clock::now();
    const auto r = sim.run();
    (telemetry ? row.telemetry_wall_ms : row.wall_ms) = ms_since(t0);
    if (!telemetry) row.cells = r.offered;
  }
  return row;
}

// The leaf-spine fabric: TopoSim's two-level fat-tree preset.
PerfRow measure_fabric(int radix, std::uint64_t slots) {
  const int hosts = radix * (radix / 2);
  PerfRow row{"fabric", hosts, slots, 0, 0.0, 0.0};
  for (const bool telemetry : {false, true}) {
    topo::TopoSimConfig cfg = topo::leaf_spine_config(radix);
    cfg.warmup_slots = slots / 10;
    cfg.measure_slots = slots - cfg.warmup_slots;
    if (telemetry) cfg.telemetry = telemetry_on();
    topo::TopoSim sim(cfg, sim::make_uniform(hosts, 0.5, 7));
    const auto t0 = Clock::now();
    const auto r = sim.run();
    (telemetry ? row.telemetry_wall_ms : row.wall_ms) = ms_since(t0);
    if (!telemetry) row.cells = r.injected_total;
  }
  return row;
}

PerfRow measure_multiplane(int ports, std::uint64_t slots) {
  PerfRow row{"multiplane", ports, slots, 0, 0.0, 0.0};
  // MultiPlaneSim has no telemetry member: both columns time the same
  // configuration and the overhead ratio stays ~1.
  for (const bool second : {false, true}) {
    fabric::MultiPlaneConfig cfg;
    cfg.ports = ports;
    cfg.planes = 2;
    cfg.warmup_slots = slots / 10;
    cfg.measure_slots = slots - cfg.warmup_slots;
    // The traffic run_multiplane_uniform(cfg, 0.4, 7) builds; the clock
    // starts after construction, as for the other engines.
    std::vector<std::unique_ptr<sim::TrafficGen>> gens;
    for (int p = 0; p < cfg.planes; ++p)
      gens.push_back(
          sim::make_uniform(ports, 0.4, 7 + static_cast<std::uint64_t>(p)));
    fabric::MultiPlaneSim sim(cfg, std::move(gens));
    const auto t0 = Clock::now();
    const auto r = sim.run();
    (second ? row.telemetry_wall_ms : row.wall_ms) = ms_since(t0);
    if (!second) row.cells = r.offered;
  }
  return row;
}

/// ns per disabled/enabled OSMOSIS_PROF_SCOPE, averaged over many
/// iterations (each iteration = one construct/destruct pair).
double scope_cost_ns(bool enabled) {
  if (enabled)
    prof::Profiler::instance().enable();
  else
    prof::Profiler::instance().disable();
  constexpr std::uint64_t kIters = 1 << 21;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    OSMOSIS_PROF_SCOPE("bench.scope");
    clobber();
  }
  const double total_ns = ms_since(t0) * 1e6;
  prof::Profiler::instance().disable();
  prof::Profiler::instance().reset();
  return total_ns / static_cast<double>(kIters);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");

  std::vector<PerfRow> rows;
  if (smoke) {
    rows.push_back(measure_switch(16, 4'000));
    rows.push_back(measure_switch(64, 2'000));
    rows.push_back(measure_event(16, 4'000));
    rows.push_back(measure_event(64, 1'000));
    rows.push_back(measure_fabric(8, 4'000));    // 32 hosts
    rows.push_back(measure_fabric(16, 1'000));   // 128 hosts
    rows.push_back(measure_multiplane(16, 4'000));
    rows.push_back(measure_multiplane(64, 1'000));
  } else {
    for (const int p : {64, 256, 1024, 2048})
      rows.push_back(measure_switch(p, 512'000 / static_cast<unsigned>(p)));
    for (const int p : {64, 256, 1024, 2048})
      rows.push_back(measure_event(p, 256'000 / static_cast<unsigned>(p)));
    for (const int radix : {16, 32, 64})  // 128 / 512 / 2048 hosts
      rows.push_back(measure_fabric(
          radix, 64'000 / static_cast<unsigned>(radix)));
    for (const int p : {64, 256, 1024, 2048})
      rows.push_back(
          measure_multiplane(p, 256'000 / static_cast<unsigned>(p)));
  }

  // Profiler cost discipline: a disabled scope must stay under 2% of the
  // cheapest simulator slot measured above (DESIGN.md §11). A slot
  // passes ~8 scopes, so compare 8x the scope cost against the bound.
  const double disabled_ns = scope_cost_ns(false);
  const double enabled_ns = scope_cost_ns(true);
  double min_slot_ns = 0.0;
  for (const auto& r : rows) {
    const double slot_ns =
        r.wall_ms * 1e6 / static_cast<double>(r.slots ? r.slots : 1);
    if (min_slot_ns == 0.0 || slot_ns < min_slot_ns) min_slot_ns = slot_ns;
  }
  constexpr double kScopesPerSlot = 8.0;
  constexpr double kBound = 0.02;
  const double overhead_frac =
      min_slot_ns > 0.0 ? disabled_ns * kScopesPerSlot / min_slot_ns : 0.0;

  telemetry::JsonWriter w(2);
  w.open('{');
  w.key("schema");
  w.string("osmosis.bench_perf.v1");
  w.key("mode");
  w.string(smoke ? "smoke" : "full");
  w.key("meta");
  w.open('{');
  w.key("build");
  w.open('{');
  for (const auto& [k, v] : telemetry::build_info()) {
    w.key(k);
    w.string(v);
  }
  w.close('}');
  w.close('}');
  w.key("profiler");
  w.open('{');
  w.key("disabled_scope_ns");
  w.number(disabled_ns);
  w.key("enabled_scope_ns");
  w.number(enabled_ns);
  w.key("min_slot_ns");
  w.number(min_slot_ns);
  w.key("disabled_overhead_frac");
  w.number(overhead_frac);
  w.key("bound");
  w.number(kBound);
  w.close('}');
  w.key("sims");
  w.open('[');
  for (const auto& r : rows) {
    const double sec = r.wall_ms / 1e3;
    w.open('{');
    w.key("sim");
    w.string(r.sim);
    w.key("ports");
    w.number(r.ports);
    w.key("slots");
    w.number(static_cast<double>(r.slots));
    w.key("cells");
    w.number(static_cast<double>(r.cells));
    w.key("wall_ms");
    w.number(r.wall_ms);
    w.key("slots_per_sec");
    w.number(sec > 0.0 ? static_cast<double>(r.slots) / sec : 0.0);
    w.key("cells_per_sec");
    w.number(sec > 0.0 ? static_cast<double>(r.cells) / sec : 0.0);
    w.key("telemetry_wall_ms");
    w.number(r.telemetry_wall_ms);
    w.key("telemetry_overhead");
    w.number(r.wall_ms > 0.0 ? r.telemetry_wall_ms / r.wall_ms : 0.0);
    w.close('}');
  }
  w.close(']');
  w.close('}');
  const std::string doc = w.str();

  if (cli.has("json")) {
    const std::string path = cli.get_path("json", "");
    std::ofstream out(path);
    if (!(out << doc << "\n")) {
      std::cerr << "error: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "perf document written to " << path << "\n";
  } else {
    std::cout << doc << "\n";
  }

  for (const auto& r : rows) {
    const double sec = r.wall_ms / 1e3;
    std::cout << r.sim << "/" << r.ports << ": "
              << (sec > 0.0 ? static_cast<double>(r.slots) / sec : 0.0)
              << " slots/s, "
              << (sec > 0.0 ? static_cast<double>(r.cells) / sec : 0.0)
              << " cells/s, telemetry x"
              << (r.wall_ms > 0.0 ? r.telemetry_wall_ms / r.wall_ms : 0.0)
              << "\n";
  }
  std::cout << "profiler: disabled scope " << disabled_ns
            << " ns, enabled scope " << enabled_ns << " ns, overhead "
            << overhead_frac * 100.0 << "% of the cheapest slot (bound "
            << kBound * 100.0 << "%)\n";

  // Optional instrumented-run artifacts for the trace tooling.
  if (cli.has("trace") || cli.has("sim-trace") || cli.has("report")) {
    sw::SwitchSimConfig cfg;
    cfg.ports = 16;
    cfg.warmup_slots = 200;
    cfg.measure_slots = 2'000;
    cfg.telemetry = telemetry_on();
    cfg.telemetry.sample_every = 1;
    cfg.fault_plan = exec::make_fault_plan(exec::FaultScenario::kCombined,
                                           cfg.warmup_slots,
                                           cfg.measure_slots);
    cfg.fault_plan.seeded(0xBEEF);
    cfg.drain_max_slots = 20'000;
    sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.6, 11));
    prof::Profiler::instance().reset();
    prof::Profiler::instance().enable(/*capture_spans=*/true);
    prof::Profiler::instance().set_thread_name("bench_perf");
    sim.run();
    prof::Profiler::instance().disable();

    auto write_doc = [](const std::string& path, const std::string& body,
                        const char* what) {
      std::ofstream out(path);
      if (!(out << body << "\n")) {
        std::cerr << "error: cannot write " << path << "\n";
        return false;
      }
      std::cout << what << " written to " << path << "\n";
      return true;
    };
    if (cli.has("trace") &&
        !write_doc(cli.get_path("trace", ""),
                   prof::wall_trace_json(prof::Profiler::instance(), 0),
                   "wall-clock Chrome trace"))
      return 1;
    if (cli.has("sim-trace")) {
      const prof::TimeSeriesData series = sim.telemetry().series().snapshot();
      if (!write_doc(cli.get_path("sim-trace", ""),
                     prof::sim_trace_json(&sim.telemetry().trace(),
                                          &cfg.fault_plan, &series),
                     "sim-time Chrome trace"))
        return 1;
    }
    if (cli.has("report")) {
      telemetry::RunReport report = sim.report();
      report.attach_build_info();
      report.profile = prof::Profiler::instance().flat_profile();
      if (!write_doc(cli.get_path("report", ""), report.to_json(2),
                     "run report"))
        return 1;
    }
    prof::Profiler::instance().reset();
  }

  if (overhead_frac >= kBound) {
    std::cerr << "error: disabled-profiler overhead " << overhead_frac * 100.0
              << "% exceeds the " << kBound * 100.0 << "% bound\n";
    return 1;
  }
  return 0;
}
