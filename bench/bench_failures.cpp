// Degraded-operation study (an ablation the paper's dual-receiver
// design implies but does not plot): the broadcast-and-select fabric
// with failed optical switching modules and failed broadcast fibers —
// both pre-run (static) and injected mid-run with automatic recovery.
// The dual-receiver architecture doubles as path redundancy — an egress
// with one dead module stays at full line rate through the survivor —
// while a fiber failure cleanly isolates its 8-port WDM group. The
// mid-run section measures time-to-recover (repair -> backlog back to
// its pre-fault baseline) and the throughput dip each fault carves out,
// and checks the exactly-once in-order delivery invariant end to end.
//
// The mid-run scenario table is a fault-scenario axis driven through the
// exec::CampaignRunner; the static failed-module/failed-fiber sweeps fan
// out directly over an exec::ThreadPool. --threads=N bounds the worker
// count (default: every hardware thread); the numbers are identical at
// any thread count.
//
// --json=<path> dumps the RunReport of the combined-fault scenario
// (fault counters, recovery gauges, and the health event log).
//
// --permanent switches to the graceful-degradation study on the
// two-stage fabric: a spine is cut permanently mid-measurement with
// fault-aware adaptive routing and degraded-mode admission on, and the
// run must sustain at least (surviving fraction) x (fault-free
// throughput) x 0.9 while keeping exactly-once delivery for every
// non-shed cell. --json then dumps the degraded run's RunReport, whose
// `availability` section carries the SLO numbers.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/exec/campaign_runner.hpp"
#include "src/exec/thread_pool.hpp"
#include "src/phy/crossbar_optical.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

using namespace osmosis;

namespace {

sw::SwitchSimConfig base_config(std::uint64_t slots) {
  sw::SwitchSimConfig cfg;
  cfg.ports = 64;
  cfg.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sched.receivers = 2;
  cfg.measure_slots = slots;
  return cfg;
}

topo::TopoSimConfig degraded_config(std::uint64_t slots) {
  topo::TopoSimConfig cfg = topo::leaf_spine_config(8);  // 4 spines, 32 hosts
  cfg.warmup_slots = 2'000;
  cfg.measure_slots = slots;
  cfg.adaptive_routing = true;
  cfg.admission = true;
  // Post-run drain so the exactly-once verdict covers every in-flight
  // cell; capacity-derived headroom for the 3/4-survivor degraded run.
  cfg.drain_max_slots = 200'000;
  return cfg;
}

/// Graceful-degradation study: permanent spine cut under adaptive
/// routing + admission, checked against the availability floor.
int run_permanent(const util::Cli& cli, std::uint64_t slots) {
  std::cout << "Graceful degradation: permanent spine cut on the "
               "two-stage fabric (radix 8, 4 spines, 0.85 uniform load, "
               "adaptive routing + degraded-mode admission)\n\n";

  const double load = 0.85;
  const int spines = 4;
  const std::uint64_t cut_at = 2'000 + slots / 4;

  auto fault_free_cfg = degraded_config(slots);
  auto degraded_cfg = degraded_config(slots);
  degraded_cfg.fault_plan.fail_plane(cut_at, 0);  // duration 0: permanent

  const int hosts = fault_free_cfg.hosts;
  topo::TopoSim fault_free(fault_free_cfg,
                           sim::make_uniform(hosts, load, 0xFA4));
  const auto base = fault_free.run();

  topo::TopoSim degraded(degraded_cfg, sim::make_uniform(hosts, load, 0xFA4));
  const auto r = degraded.run();

  util::Table t({"run", "throughput", "delivered", "shed", "resteered",
                 "reseq depth", "brownout slots", "exactly-once"},
                4);
  auto row = [&](const char* name, const topo::TopoSimResult& x) {
    t.add_row({std::string(name), x.throughput,
               static_cast<long long>(x.delivered),
               static_cast<long long>(x.shed_cells),
               static_cast<long long>(x.resteered),
               static_cast<long long>(x.max_resequencer_depth),
               static_cast<long long>(x.brownout_slots),
               x.exactly_once_in_order ? "yes" : "NO"});
  };
  row("fault-free", base);
  row("spine 0 cut", r);
  t.print(std::cout);

  // Acceptance floor: a permanent cut of 1 of 4 spines must sustain at
  // least the surviving fraction of fault-free throughput, less a 10%
  // transient allowance for the re-steer and resequencing window.
  const double surviving = static_cast<double>(spines - 1) / spines;
  const double floor = surviving * base.throughput * 0.9;
  std::cout << "\nfloor check: degraded throughput " << r.throughput
            << " vs floor " << floor << " (" << (spines - 1) << "/"
            << spines << " survivors x fault-free " << base.throughput
            << " x 0.9)\n";

  bool ok = true;
  if (r.throughput < floor) {
    std::cerr << "FAIL: degraded throughput below the availability "
                 "floor\n";
    ok = false;
  }
  if (!r.exactly_once_in_order) {
    std::cerr << "FAIL: non-shed cells were not delivered exactly once "
                 "in order\n";
    ok = false;
  }
  // The invariant monitor checks every slot that each generated cell
  // was either offered into the fabric or shed, among its other ledgers.
  if (r.invariant_violations != 0) {
    std::cerr << "FAIL: invariant violated (" << r.first_violation
              << ")\n";
    ok = false;
  }
  std::cout << "(every generated cell is accounted for: " << r.injected_total
            << " offered = " << r.injected_total + r.shed_cells
            << " generated - " << r.shed_cells << " shed; " << r.resteered
            << " VOQ cells re-steered off the dead uplink and "
            << r.reroute_ooo
            << " reorders absorbed by the egress resequencer)\n";

  if (cli.has("json")) {
    const std::string path = cli.get_path("json", "");
    std::ofstream out(path);
    if (!(out << degraded.report().to_json() << "\n")) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cout << "(degraded RunReport written to " << path << ")\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto slots = static_cast<std::uint64_t>(cli.get_int("slots", 15'000));
  if (cli.has("permanent")) return run_permanent(cli, slots);
  exec::ThreadPool pool(static_cast<unsigned>(cli.get_int("threads", 0)));

  std::cout << "Degraded operation: failed switching modules and fibers in "
               "the 64-port dual-receiver OSMOSIS switch (0.85 uniform "
               "load)\n\n";

  // Static-failure sweeps: independent points, fanned out over the pool
  // into pre-sized result slots (each worker writes only its own index).
  const std::vector<int> module_counts = {0, 8, 16, 32, 64};
  std::vector<sw::SwitchSimResult> module_results(module_counts.size());
  for (std::size_t i = 0; i < module_counts.size(); ++i) {
    pool.submit([&, i] {
      auto cfg = base_config(slots);
      // Spread the failures: kill receiver 1 of the first `failed` outputs.
      for (int out = 0; out < module_counts[i]; ++out)
        cfg.failed_receivers.push_back({out, 1});
      module_results[i] = sw::run_uniform(cfg, 0.85, 0xFA1);
    });
  }

  const std::vector<int> fiber_counts = {0, 1, 2, 4};
  std::vector<sw::SwitchSimResult> fiber_results(fiber_counts.size());
  for (std::size_t i = 0; i < fiber_counts.size(); ++i) {
    pool.submit([&, i] {
      auto cfg = base_config(slots);
      for (int fi = 0; fi < fiber_counts[i]; ++fi)
        cfg.failed_fibers.push_back(fi);
      fiber_results[i] = sw::run_uniform(cfg, 0.8, 0xFA2);
    });
  }
  pool.wait_idle();
  for (const auto& e : pool.take_exceptions()) std::rethrow_exception(e);

  util::Table t({"failed modules (of 128)", "throughput", "mean delay",
                 "p99 delay", "ooo"},
                3);
  for (std::size_t i = 0; i < module_counts.size(); ++i) {
    const auto& r = module_results[i];
    t.add_row({static_cast<long long>(module_counts[i]), r.throughput,
               r.mean_delay, r.p99_delay,
               static_cast<long long>(r.out_of_order)});
  }
  t.print(std::cout);
  std::cout << "(even with HALF the switching modules dead — one per "
               "egress — every port still runs at full line rate; only "
               "the dual-receiver delay benefit shrinks back toward the "
               "single-receiver curve of Fig. 7)\n";

  std::cout << "\nBroadcast-fiber failures (each takes one 8-port WDM "
               "group offline):\n\n";
  util::Table f({"failed fibers (of 8)", "live hosts", "aggregate "
                 "throughput", "per-live-host throughput", "ooo"},
                3);
  for (std::size_t i = 0; i < fiber_counts.size(); ++i) {
    const auto& r = fiber_results[i];
    const int live = 64 - fiber_counts[i] * 8;
    f.add_row({static_cast<long long>(fiber_counts[i]),
               static_cast<long long>(live), r.throughput,
               live > 0 ? r.throughput * 64.0 / live : 0.0,
               static_cast<long long>(r.out_of_order)});
  }
  f.print(std::cout);
  std::cout << "(surviving groups keep their full 0.8 load — failures are "
               "isolated, the fabric never drops or reorders)\n";

  // Reachability audit on the gate-accurate crossbar.
  phy::BroadcastSelectCrossbar xbar;
  for (int eg = 0; eg < 64; ++eg) xbar.fail_module(eg, 1);
  std::cout << "\nreachability with one module dead per egress: input 0 "
               "reaches " << xbar.reachable_egress_count(0)
            << "/64 egress ports\n";

  // ---- mid-run faults with automatic recovery ---------------------------
  // The scenario table is the FaultScenario axis of a campaign: one job
  // per scenario at 0.7 uniform load, dual receivers.
  std::cout << "\nMid-run fault injection with automatic recovery (0.7 "
               "uniform load, fault window inside the measurement "
               "phase):\n\n";

  exec::CampaignSpec spec;
  spec.name = "failures_mid_run";
  spec.ports = {64};
  spec.receivers = {2};
  spec.loads = {0.7};
  spec.faults = {exec::FaultScenario::kNone,
                 exec::FaultScenario::kModuleOutage,
                 exec::FaultScenario::kModulePermanent,
                 exec::FaultScenario::kFiberCut,
                 exec::FaultScenario::kGrantCorruption,
                 exec::FaultScenario::kBurstErrors,
                 exec::FaultScenario::kAdapterStall,
                 exec::FaultScenario::kCombined};
  spec.warmup_slots = 2'000;
  spec.measure_slots = slots;
  spec.campaign_seed = 0xFA3;

  exec::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(cli.get_int("threads", 0));
  exec::CampaignRunner runner(opts);
  const exec::CampaignResult result = runner.run(spec);

  util::Table m({"scenario", "throughput", "min 512-slot thr",
                 "grant corr", "retx", "recov", "mean recov slots",
                 "exactly-once"},
                3);
  for (const auto& j : result.jobs) {
    if (!j.ok) {
      m.add_row({to_string(j.spec.fault),
                 std::string("FAILED: " + j.error), std::string("-"),
                 std::string("-"), std::string("-"), std::string("-"),
                 std::string("-"), std::string("-")});
      continue;
    }
    auto metric = [&](const char* name) {
      auto it = j.metrics.find(name);
      return it != j.metrics.end() ? it->second : 0.0;
    };
    m.add_row({to_string(j.spec.fault), metric("throughput"),
               metric("min_window_throughput"),
               static_cast<long long>(metric("grant_corruptions")),
               static_cast<long long>(metric("retransmissions")),
               static_cast<long long>(metric("faults_recovered")),
               metric("mean_recovery_slots"),
               metric("exactly_once_in_order") != 0.0 ? "yes" : "NO"});
  }
  m.print(std::cout);
  std::cout << "(every scenario drains to empty after the window and "
               "passes the exactly-once in-order invariant; the min "
               "512-slot throughput column is the depth of the dip the "
               "fault carves out, and recovery time runs from repair to "
               "backlog back at its pre-fault baseline; "
            << result.jobs.size() << " jobs on " << result.threads_used
            << " threads, " << result.wall_ms << " ms wall)\n";

  if (cli.has("json")) {
    const exec::JobResult* combined =
        result.find([](const exec::JobSpec& s) {
          return s.fault == exec::FaultScenario::kCombined;
        });
    if (combined && combined->ok) {
      const std::string path = cli.get_path("json", "");
      std::ofstream out(path);
      if (!(out << combined->report.to_json() << "\n")) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
      }
      std::cout << "(combined-scenario RunReport written to " << path
                << ")\n";
    }
  }
  return 0;
}
