// Workload harness of the benchmark of record (perfbench/README.md).
//
// One process runs one engine, or the whole campaign sweep, from the
// traffic seeds given on the command line. It times every call into the
// library from outside — engine constructors, advance_slot()/advance(),
// finalize(), exec::CampaignRunner::run and CampaignResult::to_json — and
// prints one JSON object with the timings, memory and simulated outputs
// as the last line of stdout. run.py derives the seeds from one seed,
// repeats the processes, checks the outputs and reports the metrics.
//
//   perfbench_harness --engine=fabric_sim --seeds=<seed> [--trace=<file>]
//
// --engine is fabric_sim, topo_credit, topo_wormhole_vc, multiplane
// (--seeds: one per plane) or sweep (one per grid). Each engine's size,
// load and run length are fixed below. Without --trace the run is
// untraced: no span is recorded and the in-program profiler stays off.
// With --trace=<file> the harness records one span per call (name, start,
// end, parent), enables the prof::Profiler phase scopes beneath them,
// reports each span's self time, and writes the spans to <file> as a
// Chrome trace (loadable in https://ui.perfetto.dev).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/ckpt.hpp"
#include "src/exec/campaign_runner.hpp"
#include "src/fabric/fabric_sim.hpp"
#include "src/fabric/multiplane.hpp"
#include "src/prof/profiler.hpp"
#include "src/prof/trace_export.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/telemetry/json.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/cli.hpp"
#include "src/util/log.hpp"

using namespace osmosis;

namespace {

using Clock = std::chrono::steady_clock;

// Engine configurations of the workloads (README.md, "Workloads"). run.py
// chooses the engines of each workload and derives their seeds; every
// other input is fixed here. Run lengths keep one repetition at a few
// seconds: on a shared VM the same engine run varies by +-25% within
// seconds, so a run's median needs many short repetitions rather than a
// few long ones.
constexpr int kRadix = 64;  // the Table 1 machine: a two-level fat tree of
constexpr int kHosts = kRadix * kRadix / 2;  // 96 64-port switches
constexpr std::uint64_t kFabricWarmup = 20, kFabricMeasure = 180;
constexpr double kFabricLoad = 0.5;    // FabricSim and credit TopoSim
constexpr double kWormholeLoad = 0.2;  // flit load; saturates near 0.24
constexpr int kPlanePorts = 512, kPlanes = 2;
constexpr std::uint64_t kPlaneWarmup = 50, kPlaneMeasure = 250;
constexpr double kPlaneLoad = 0.4;  // per plane
constexpr unsigned kSweepThreads = 4;
constexpr std::size_t kSweepGrids = 5;
constexpr std::uint64_t kSweepWarmup = 250, kSweepMeasure = 2000;
// Drain budget after the measurement window: every engine run ends with
// an exactly-once verdict over every cell it was offered.
constexpr std::uint64_t kDrainSlots = 50'000;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A field of /proc/self/status ("VmRSS", "VmHWM") in MB.
double proc_status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, field.size() + 1, field + ":") == 0)
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
  return 0.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// In-memory span recorder; disabled, it records nothing. Thread-safe,
/// because campaign jobs record from the pool's workers.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0_us = 0.0;
    double t1_us = 0.0;
    int parent = -1;
    int tid = 0;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  /// Records a span that already ended; returns its id (-1 when off).
  int add(std::string name, Clock::time_point t0, Clock::time_point t1,
          int parent, int tid = 0) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), us(t0), us(t1), parent, tid});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Opens a span that child spans can name as their parent.
  int open(std::string name, int parent, int tid = 0) {
    const auto t = Clock::now();
    return add(std::move(name), t, t, parent, tid);
  }
  void close(int id) {
    if (id < 0) return;
    const double t = us(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1_us = t;
  }

  /// Read only after every recording thread has finished.
  const std::vector<Span>& spans() const { return spans_; }

  /// Small, stable per-thread ids for the trace tracks (0 = first caller).
  int thread_id() {
    std::lock_guard<std::mutex> lock(mu_);
    const int next = static_cast<int>(tids_.size());
    return tids_.emplace(std::this_thread::get_id(), next).first->second;
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

/// Per span name: count, total and self time (total minus the part of
/// its interval that child spans cover; campaign jobs overlap, so it is
/// the union of the children). In-program profiler phases run inside
/// advance calls, so their totals count as children of the advance
/// spans.
void write_self_times(telemetry::JsonWriter& w, const Tracer& tr,
                      double phase_total_s) {
  const auto& spans = tr.spans();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.t0_us,
                                                                s.t1_us);
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered_end = -1e300;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, covered_end);
      if (b > from) child_s[i] += (b - from) * 1e-6;
      covered_end = std::max(covered_end, b);
    }
  }
  struct Row {
    double count = 0.0, total_s = 0.0, self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = (spans[i].t1_us - spans[i].t0_us) * 1e-6;
    // Job spans carry the job label; fold them under one name.
    const std::string& name =
        spans[i].name.find('/') != std::string::npos ? "job" : spans[i].name;
    Row& r = rows[name];
    r.count += 1.0;
    r.total_s += dur;
    r.self_s += dur - child_s[i];
  }
  for (const char* loop : {"advance", "advance_loop"})
    if (auto it = rows.find(loop); it != rows.end())
      it->second.self_s -= phase_total_s;
  w.key("spans");
  w.open('{');
  for (const auto& [name, r] : rows) {
    w.key(name);
    w.open('{');
    w.key("count");
    w.number(r.count);
    w.key("total_s");
    w.number(r.total_s);
    w.key("self_s");
    w.number(r.self_s);
    w.close('}');
  }
  w.close('}');
}

/// Writes the harness spans and the captured profiler phase spans as one
/// Chrome trace; run.py merges the per-process files into one trace.
bool write_trace(const std::string& path, const std::string& process,
                 const Tracer& tr) {
  prof::ChromeTraceBuilder trace;
  trace.process_name(0, process);
  for (const auto& s : tr.spans()) {
    std::map<std::string, double> args;
    if (s.parent >= 0) args["parent"] = s.parent;
    trace.duration(0, s.tid, s.name, s.t0_us, s.t1_us - s.t0_us, args);
  }
  // Profiler timestamps count from Profiler::enable(), which main() calls
  // just before constructing the tracer: a phase shows at most a
  // microsecond late, and the builder clamps it to its advance call.
  for (const auto& s : prof::Profiler::instance().spans())
    trace.duration(0, static_cast<int>(s.tid), s.name, s.t0_us, s.dur_us);
  std::ofstream out(path);
  return static_cast<bool>(out << trace.to_json() << "\n");
}

/// In-program phases from the profiler (campaign job wrappers excluded).
std::map<std::string, double> phase_seconds() {
  std::map<std::string, double> out;
  for (const auto& [name, ps] : prof::Profiler::instance().flat_profile())
    if (name != "exec.job") out[name] = ps.total_ns * 1e-9;
  return out;
}

void write_map(telemetry::JsonWriter& w, const char* key,
               const std::map<std::string, double>& m) {
  w.key(key);
  w.open('{');
  for (const auto& [k, v] : m) {
    w.key(k);
    w.number(v);
  }
  w.close('}');
}

/// --seeds: exactly `count` comma-separated 64-bit traffic seeds.
std::vector<std::uint64_t> parse_seeds(const util::Cli& cli,
                                       std::size_t count) {
  std::vector<std::uint64_t> seeds;
  const std::string text = cli.get("seeds", "");
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item = text.substr(start, comma - start);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    OSMOSIS_REQUIRE(!item.empty() && *end == '\0',
                    "--seeds: '" << item << "' is not a seed");
    seeds.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  OSMOSIS_REQUIRE(seeds.size() == count,
                  "--seeds: this engine takes " << count << " seed(s)");
  return seeds;
}

// ---- engine runs ------------------------------------------------------------

/// One engine run: the time and memory of each call, and the simulated
/// outputs run.py checks.
struct EngineRun {
  std::string name;
  double construct_s = 0.0;
  double construct_rss_mb = 0.0;  // RSS growth across the constructor
  double run_s = 0.0;             // the advance loop
  double finalize_s = 0.0;
  std::uint64_t advance_calls = 0;
  std::vector<double> slot_ms;  // traced: one sample per advance call
  double cells = 0.0;           // delivered over the whole run (flits for
  double offered = 0.0;         // wormhole), and offered
  std::map<std::string, double> outputs;  // simulated statistics
};

template <class Make, class Report>
EngineRun run_engine(const std::string& name, Tracer& tr, Make make,
                     Report report) {
  EngineRun e;
  e.name = name;
  const int root = tr.open(name, -1);
  const double rss0 = proc_status_mb("VmRSS");
  const auto t0 = Clock::now();
  auto sim = make();
  const auto t1 = Clock::now();
  e.construct_rss_mb = proc_status_mb("VmRSS") - rss0;
  tr.add("construct", t0, t1, root);
  e.construct_s = seconds_between(t0, t1);

  const auto t2 = Clock::now();
  if (tr.on()) {
    for (bool more = true; more;) {
      const auto a = Clock::now();
      more = sim->advance_slot();
      const auto b = Clock::now();
      tr.add("advance", a, b, root);
      e.slot_ms.push_back(seconds_between(a, b) * 1e3);
      ++e.advance_calls;
    }
  } else {
    do {
      ++e.advance_calls;
    } while (sim->advance_slot());
  }
  const auto t3 = Clock::now();
  e.run_s = seconds_between(t2, t3);
  const auto r = sim->finalize();
  const auto t4 = Clock::now();
  tr.add("finalize", t3, t4, root);
  tr.close(root);
  e.finalize_s = seconds_between(t3, t4);
  report(r, e);
  // The process exits after reporting this one run; tearing a large
  // engine down would only add unmeasured time per process.
  static_cast<void>(sim.release());
  return e;
}

/// Outputs every cell-level engine reports (run.py checks them and holds
/// them against reference.json).
template <class R>
void common_outputs(const R& r, EngineRun& e, double throughput,
                    double mean_delay, double p99_delay, double ooo) {
  e.outputs["delivered"] = static_cast<double>(r.delivered);
  e.outputs["throughput"] = throughput;
  e.outputs["mean_delay"] = mean_delay;
  e.outputs["p99_delay"] = p99_delay;
  e.outputs["exactly_once"] = r.exactly_once_in_order ? 1.0 : 0.0;
  e.outputs["invariant_violations"] =
      static_cast<double>(r.invariant_violations);
  e.outputs["out_of_order"] = ooo;
}

EngineRun run_multiplane(const util::Cli& cli, Tracer& tr) {
  fabric::MultiPlaneConfig cfg;
  cfg.ports = kPlanePorts;
  cfg.planes = kPlanes;
  cfg.warmup_slots = kPlaneWarmup;
  cfg.measure_slots = kPlaneMeasure;
  cfg.drain_max_slots = kDrainSlots;
  const std::vector<std::uint64_t> seeds = parse_seeds(cli, kPlanes);
  return run_engine(
      "fabric.multiplane", tr,
      [&] {
        std::vector<std::unique_ptr<sim::TrafficGen>> gens;
        for (const std::uint64_t s : seeds)
          gens.push_back(sim::make_uniform(cfg.ports, kPlaneLoad, s));
        return std::make_unique<fabric::MultiPlaneSim>(cfg, std::move(gens));
      },
      [](const fabric::MultiPlaneResult& r, EngineRun& e) {
        common_outputs(r, e, r.throughput_per_plane, r.mean_delay_slots,
                       r.p99_delay_slots,
                       static_cast<double>(r.post_resequencer_ooo));
        e.outputs["missing"] = static_cast<double>(r.missing);
        e.outputs["duplicates"] = static_cast<double>(r.duplicates);
        e.offered = static_cast<double>(r.offered);
        e.cells = static_cast<double>(r.offered - r.missing);
      });
}

EngineRun run_fabric(const util::Cli& cli, Tracer& tr) {
  fabric::FabricSimConfig cfg;
  cfg.radix = kRadix;
  cfg.warmup_slots = kFabricWarmup;
  cfg.measure_slots = kFabricMeasure;
  cfg.drain_max_slots = kDrainSlots;
  const std::uint64_t seed = parse_seeds(cli, 1)[0];
  return run_engine(
      "fabric.fabric_sim", tr,
      [&] {
        return std::make_unique<fabric::FabricSim>(
            cfg, sim::make_uniform(kHosts, kFabricLoad, seed));
      },
      [](const fabric::FabricSimResult& r, EngineRun& e) {
        common_outputs(r, e, r.throughput, r.mean_delay_slots,
                       r.p99_delay_slots, static_cast<double>(r.out_of_order));
        e.outputs["missing"] = static_cast<double>(r.missing);
        e.outputs["duplicates"] = static_cast<double>(r.duplicates);
        e.outputs["buffer_overflows"] =
            static_cast<double>(r.buffer_overflows);
        e.offered = static_cast<double>(r.offered);
        e.cells = static_cast<double>(r.offered - r.missing);
      });
}

EngineRun run_topo(const util::Cli& cli, Tracer& tr, topo::FcKind fc) {
  topo::TopoSimConfig cfg;
  cfg.topology = topo::TopoKind::kFatTree;
  cfg.hosts = kHosts;
  cfg.fc.kind = fc;
  cfg.warmup_slots = kFabricWarmup;
  cfg.measure_slots = kFabricMeasure;
  cfg.drain_max_slots = kDrainSlots;
  const bool wormhole = fc == topo::FcKind::kWormholeVc;
  // The loads are flit loads; wormhole injects packets of
  // flits_per_packet flits (the run_topo_uniform rule).
  const double flits = wormhole ? cfg.fc.flits_per_packet : 1.0;
  const double p = (wormhole ? kWormholeLoad : kFabricLoad) / flits;
  const std::uint64_t seed = parse_seeds(cli, 1)[0];
  return run_engine(
      wormhole ? "topo.wormhole_vc" : "topo.credit", tr,
      [&] {
        return std::make_unique<topo::TopoSim>(
            cfg, sim::make_uniform(cfg.hosts, p, seed));
      },
      [flits](const topo::TopoSimResult& r, EngineRun& e) {
        common_outputs(r, e, r.throughput, r.mean_delay_slots,
                       r.p99_delay_slots, static_cast<double>(r.out_of_order));
        e.outputs["buffer_overflows"] =
            static_cast<double>(r.buffer_overflows);
        e.offered = static_cast<double>(r.injected_total) * flits;
        e.cells = static_cast<double>(r.delivered_total) * flits;
      });
}

void write_engine(const EngineRun& e, const Tracer& tr, double peak_rss_mb) {
  const std::map<std::string, double> phases = phase_seconds();
  double phase_total_s = 0.0;
  for (const auto& [name, s] : phases) phase_total_s += s;

  telemetry::JsonWriter w(0);
  w.open('{');
  w.key("engine");
  w.string(e.name);
  w.key("construct_s");
  w.number(e.construct_s);
  w.key("construct_rss_mb");
  w.number(e.construct_rss_mb);
  w.key("run_s");
  w.number(e.run_s);
  w.key("finalize_s");
  w.number(e.finalize_s);
  w.key("advance_calls");
  w.number(static_cast<double>(e.advance_calls));
  w.key("cells");
  w.number(e.cells);
  w.key("offered");
  w.number(e.offered);
  w.key("peak_rss_mb");
  w.number(peak_rss_mb);
  write_map(w, "outputs", e.outputs);
  if (tr.on()) {
    write_map(w, "phases", phases);
    w.key("slot_ms");
    w.open('[');
    for (const double v : e.slot_ms) w.number(v);
    w.close(']');
    write_self_times(w, tr, phase_total_s);
  }
  w.close('}');
  std::cout << w.str() << "\n";
}

// ---- campaign sweep ---------------------------------------------------------

/// The paper's figure grids as their benches define them (bench_fig6's
/// scheduler grid, bench_campaign's Fig. 7 grid, bench_failures' fault
/// table, bench_campaign --topo, bench_serve --arrival=poisson,mmpp,
/// diurnal), at a common run length. 104 jobs.
std::vector<exec::CampaignSpec> sweep_grids(
    const std::vector<std::uint64_t>& seeds) {
  std::vector<exec::CampaignSpec> grids(kSweepGrids);
  for (std::size_t i = 0; i < grids.size(); ++i) {
    grids[i].warmup_slots = kSweepWarmup;
    grids[i].measure_slots = kSweepMeasure;
    grids[i].campaign_seed = seeds[i];
  }
  exec::CampaignSpec& fig6 = grids[0];
  fig6.name = "fig6_schedulers";
  fig6.ports = {64};
  fig6.receivers = {1};
  fig6.schedulers = {sw::SchedulerKind::kFlppr,
                     sw::SchedulerKind::kPipelinedIslip,
                     sw::SchedulerKind::kIslip};
  fig6.loads = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

  exec::CampaignSpec& fig7 = grids[1];
  fig7.name = "fig7_headline";
  fig7.ports = {64};
  fig7.receivers = {1, 2, 4};
  fig7.loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                0.7, 0.8, 0.85, 0.9, 0.95, 0.99};

  exec::CampaignSpec& failures = grids[2];
  failures.name = "failures_mid_run";
  failures.ports = {64};
  failures.receivers = {2};
  failures.loads = {0.7};
  failures.faults = {exec::FaultScenario::kNone,
                     exec::FaultScenario::kModuleOutage,
                     exec::FaultScenario::kModulePermanent,
                     exec::FaultScenario::kFiberCut,
                     exec::FaultScenario::kGrantCorruption,
                     exec::FaultScenario::kBurstErrors,
                     exec::FaultScenario::kAdapterStall,
                     exec::FaultScenario::kCombined};

  exec::CampaignSpec& topo = grids[3];
  topo.name = "campaign_topo";
  topo.sims = {exec::SimKind::kTopo};
  topo.schedulers = {sw::SchedulerKind::kIslip};
  topo.ports = {32};
  topo.receivers = {1};
  topo.loads = {0.6};
  topo.topologies = {topo::TopoKind::kFatTree, topo::TopoKind::kClos,
                     topo::TopoKind::kBenes};
  topo.flow_controls = {topo::FcKind::kCredit, topo::FcKind::kRelayed,
                        topo::FcKind::kWormholeVc};
  topo.faults = {exec::FaultScenario::kNone,
                 exec::FaultScenario::kSpineOutage};

  exec::CampaignSpec& serve = grids[4];
  serve.name = "serve_sweep";
  serve.sims = {exec::SimKind::kServe};
  serve.ports = {16};
  serve.receivers = {2};
  serve.loads = {0.5, 0.8};
  serve.clients = {1'000, 1'000'000};
  serve.arrivals = {api::ArrivalKind::kPoisson, api::ArrivalKind::kMmpp,
                    api::ArrivalKind::kDiurnal};
  serve.tenants = 4;
  return grids;
}

/// Cells a finished job delivered in its measurement window (topo
/// wormhole jobs count flits).
double job_cells(const exec::JobResult& j) {
  auto metric = [&j](const char* key) {
    const auto it = j.metrics.find(key);
    return it == j.metrics.end() ? 0.0 : it->second;
  };
  if (j.spec.sim == exec::SimKind::kServe) return metric("delivered_cells");
  const double flits = j.spec.sim == exec::SimKind::kTopo &&
                               j.spec.flow_control == topo::FcKind::kWormholeVc
                           ? topo::FcParams{}.flits_per_packet
                           : 1.0;
  return metric("delivered") * flits;
}

/// Per-job timings the traced executor records, by simulator kind.
struct JobTiming {
  std::string kind;
  double construct_ms = 0.0, run_ms = 0.0, finalize_ms = 0.0;
};

void run_sweep(const util::Cli& cli, Tracer& tr) {
  constexpr int kSetupPasses = 3;
  tr.thread_id();  // the main thread's spans take track 0
  const std::vector<exec::CampaignSpec> grids =
      sweep_grids(parse_seeds(cli, kSweepGrids));

  // Set-up: every job's engine built serially, outside the pool, several
  // times; the median pass is the sweep's set-up time.
  const int setup_span = tr.open("setup", -1);
  std::vector<double> pass_s;
  double setup_rss_mb = 0.0;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    double total = 0.0;
    for (const auto& grid : grids)
      for (const exec::JobSpec& job : grid.expand()) {
        const double rss0 = proc_status_mb("VmRSS");
        const auto t0 = Clock::now();
        auto driver = exec::make_job_driver(job);
        const auto t1 = Clock::now();
        if (pass == 0) setup_rss_mb += proc_status_mb("VmRSS") - rss0;
        tr.add("setup.make_job_driver", t0, t1, setup_span);
        total += seconds_between(t0, t1);
      }
    pass_s.push_back(total);
  }
  tr.close(setup_span);

  std::mutex mu;
  std::vector<JobTiming> timings;
  std::vector<double> slot_ms;
  std::uint64_t advance_calls = 0;
  int campaign_span = -1;  // parent of the job spans; set per grid
  exec::RunnerOptions opts;
  opts.threads = kSweepThreads;
  if (tr.on()) {
    // Same calls as the built-in executor (run_job), with a span around
    // each; used only in the traced run.
    opts.executor = [&](const exec::JobSpec& spec) {
      const int tid = tr.thread_id();
      const int job = tr.open(spec.label(), campaign_span, tid);
      const auto t0 = Clock::now();
      auto driver = exec::make_job_driver(spec);
      const auto t1 = Clock::now();
      std::vector<double> slots;
      for (bool more = true; more;) {
        const auto a = Clock::now();
        more = driver->advance();
        slots.push_back(seconds_between(a, Clock::now()) * 1e3);
      }
      const auto t2 = Clock::now();
      exec::JobResult r = driver->finalize();
      const auto t3 = Clock::now();
      r.ok = true;
      tr.add("make_job_driver", t0, t1, job, tid);
      // One span for the advance loop; its per-call times are kept as
      // samples (a span each would be ~10^5 trace events per sweep).
      tr.add("advance_loop", t1, t2, job, tid);
      tr.add("finalize", t2, t3, job, tid);
      tr.close(job);
      std::lock_guard<std::mutex> lock(mu);
      timings.push_back(JobTiming{exec::to_string(spec.sim),
                                  seconds_between(t0, t1) * 1e3,
                                  seconds_between(t1, t2) * 1e3,
                                  seconds_between(t2, t3) * 1e3});
      advance_calls += slots.size();
      slot_ms.insert(slot_ms.end(), slots.begin(), slots.end());
      return r;
    };
  }

  exec::CampaignRunner runner(opts);
  double campaign_s = 0.0, to_json_s = 0.0;
  std::map<std::string, double> outputs;
  std::string all_docs;
  std::vector<exec::JobResult> jobs;
  unsigned pool_threads = 0;
  const auto wall0 = Clock::now();
  for (const auto& grid : grids) {
    campaign_span = tr.open("campaign." + grid.name, -1);
    const auto t0 = Clock::now();
    exec::CampaignResult result = runner.run(grid);
    const auto t1 = Clock::now();
    tr.close(campaign_span);
    const std::string doc = result.to_json(2, /*include_timing=*/false);
    const auto t2 = Clock::now();
    tr.add("to_json", t1, t2, -1);
    campaign_s += seconds_between(t0, t1);
    to_json_s += seconds_between(t1, t2);
    outputs["crc." + grid.name] = ckpt::crc32(doc);
    all_docs += doc;
    pool_threads = result.threads_used;
    for (auto& j : result.jobs) jobs.push_back(std::move(j));
  }
  const double wall_s = seconds_between(wall0, Clock::now());
  outputs["crc"] = ckpt::crc32(all_docs);

  double failed = 0.0, verdict_fail = 0.0, cells = 0.0, busy_ms = 0.0;
  double serve_offered = 0.0, serve_shed = 0.0, serve_done = 0.0,
         serve_ms = 0.0;
  std::vector<double> job_ms;
  for (const auto& j : jobs) {
    job_ms.push_back(j.wall_ms);
    busy_ms += j.wall_ms;
    if (!j.ok || j.quarantined) {
      failed += 1.0;
      continue;
    }
    const auto v = j.metrics.find("exactly_once_in_order");
    if (v != j.metrics.end() && v->second != 1.0) verdict_fail += 1.0;
    cells += job_cells(j);
    if (j.spec.sim == exec::SimKind::kServe) {
      serve_offered += j.metrics.at("offered");
      serve_shed += j.metrics.at("shed");
      serve_done += j.metrics.at("delivered");
      serve_ms += j.wall_ms;
    }
  }
  outputs["jobs"] = static_cast<double>(jobs.size());
  outputs["failed_jobs"] = failed;
  outputs["exactly_once_failures"] = verdict_fail;

  const std::map<std::string, double> phases = phase_seconds();
  double phase_total_s = 0.0;
  for (const auto& [name, s] : phases) phase_total_s += s;

  telemetry::JsonWriter w(0);
  w.open('{');
  w.key("engine");
  w.string("sweep");
  w.key("wall_s");
  w.number(wall_s);
  w.key("setup_s");
  w.number(percentile(pass_s, 0.5));
  w.key("construct_rss_mb");
  w.number(setup_rss_mb);
  w.key("campaign_s");
  w.number(campaign_s);
  w.key("to_json_s");
  w.number(to_json_s);
  w.key("threads");
  w.number(pool_threads);
  w.key("jobs");
  w.number(static_cast<double>(jobs.size()));
  w.key("cells");
  w.number(cells);
  w.key("job_p50_ms");
  w.number(percentile(job_ms, 0.5));
  w.key("job_p90_ms");
  w.number(percentile(job_ms, 0.9));
  w.key("pool_busy_frac");
  w.number(busy_ms / (1e3 * campaign_s * pool_threads));
  w.key("serve_requests_per_s");
  w.number(serve_ms > 0.0 ? serve_done / (serve_ms * 1e-3) : 0.0);
  w.key("serve_shed_frac");
  w.number(serve_offered > 0.0 ? serve_shed / serve_offered : 0.0);
  w.key("peak_rss_mb");
  w.number(proc_status_mb("VmHWM"));
  write_map(w, "outputs", outputs);
  if (tr.on()) {
    double construct_s = 0.0, run_s = 0.0, finalize_s = 0.0;
    std::map<std::string, std::vector<double>> by_kind;
    for (const auto& t : timings) {
      construct_s += t.construct_ms * 1e-3;
      run_s += t.run_ms * 1e-3;
      finalize_s += t.finalize_ms * 1e-3;
      by_kind[t.kind + ".construct_ms"].push_back(t.construct_ms);
      by_kind[t.kind + ".run_ms"].push_back(t.run_ms);
      by_kind[t.kind + ".finalize_ms"].push_back(t.finalize_ms);
    }
    std::map<std::string, double> kinds;
    for (const auto& [k, v] : by_kind) kinds[k] = percentile(v, 0.5);
    for (const auto& [k, v] : by_kind)
      kinds[k.substr(0, k.find('.')) + ".jobs"] = static_cast<double>(v.size());
    write_map(w, "job_kind_p50", kinds);
    w.key("job_construct_s");
    w.number(construct_s);
    w.key("job_run_s");
    w.number(run_s);
    w.key("job_finalize_s");
    w.number(finalize_s);
    w.key("advance_calls");
    w.number(static_cast<double>(advance_calls));
    w.key("slot_p50_ms");
    w.number(percentile(slot_ms, 0.5));
    w.key("slot_p90_ms");
    w.number(percentile(slot_ms, 0.9));
    write_map(w, "phases", phases);
    write_self_times(w, tr, phase_total_s);
  }
  w.close('}');
  std::cout << w.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string engine = cli.get("engine", "");
  const std::string trace_path = cli.get_path("trace", "");
  const bool traced = !trace_path.empty();

  // The profiler's epoch is taken before the tracer's, so no phase span
  // starts before the advance call that contains it. Engine runs also
  // keep the phase spans for the trace file; the sweep's ~10^6 phase
  // spans would not fit the per-thread bound.
  if (traced)
    prof::Profiler::instance().enable(/*capture_spans=*/engine != "sweep");
  Tracer tr(traced);

  std::string process = engine;
  if (engine == "sweep") {
    run_sweep(cli, tr);
  } else {
    EngineRun e;
    if (engine == "multiplane")
      e = run_multiplane(cli, tr);
    else if (engine == "fabric_sim")
      e = run_fabric(cli, tr);
    else if (engine == "topo_credit")
      e = run_topo(cli, tr, topo::FcKind::kCredit);
    else if (engine == "topo_wormhole_vc")
      e = run_topo(cli, tr, topo::FcKind::kWormholeVc);
    else {
      std::cerr << "perfbench_harness: unknown --engine '" << engine << "'\n";
      return 2;
    }
    write_engine(e, tr, proc_status_mb("VmHWM"));
    process = e.name;
  }
  prof::Profiler::instance().disable();
  if (traced && !write_trace(trace_path, process, tr)) {
    std::cerr << "perfbench_harness: cannot write " << trace_path << "\n";
    return 1;
  }
  return 0;
}
