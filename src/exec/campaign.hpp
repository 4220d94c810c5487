#pragma once
// Declarative experiment campaigns: a CampaignSpec is a grid of axes
// (simulator kind, scheduler, FLPPR depth/policy, port count, receiver
// count, traffic pattern, offered load, fault scenario, repetition)
// expanded into a flat, deterministically ordered list of independent
// JobSpecs. Each job derives its RNG seed from (campaign_seed,
// job_index) through SplitMix64, so a campaign produces byte-identical
// results at any worker-thread count — the seed depends only on the
// job's position in the grid, never on execution order.
//
// This is the declarative layer under every figure-sweep bench
// (bench_fig6 / bench_fig7 / bench_failures / bench_campaign); the
// execution layer is campaign_runner.hpp.

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/openloop.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/sw/scheduler.hpp"
#include "src/topo/flow_control.hpp"
#include "src/topo/topology.hpp"

namespace osmosis::exec {

/// Which simulator executes a job.
enum class SimKind : std::uint8_t {
  kSwitch,       // sw::SwitchSim — slot-accurate single-stage switch
  kEventSwitch,  // sw::EventSwitchSim — event-driven, ns time base
  kFabric,       // topo::TopoSim leaf-spine preset (ports = radix)
  kServe,        // api::ServeSim — open-loop serving over the switch
  kTopo,         // topo::TopoSim — topology x flow-control zoo
};
const char* to_string(SimKind kind);

/// Traffic pattern axis.
enum class TrafficKind : std::uint8_t { kUniform, kBursty };
const char* to_string(TrafficKind kind);

/// Named mid-run fault scenarios (the bench_failures table as an axis).
/// Timing follows the bench convention: the window opens at
/// warmup + measure/4 and spans measure/4 slots.
enum class FaultScenario : std::uint8_t {
  kNone,
  kModuleOutage,      // switching module (7,1) dark, then revived
  kModulePermanent,   // module (7,1) dead for good; survivor carries it
  kFiberCut,          // broadcast fiber 3 cut, then spliced
  kGrantCorruption,   // 2% of grants dropped on the control path
  kBurstErrors,       // 1% FEC-uncorrectable arrivals on every link
  kAdapterStall,      // ingress adapter 12 stalls
  kCombined,          // overlapping mix of the above
  kSpineOutage,       // fabric only: spine 0 down, credit-FC backpressure
  kSpinePermanent,    // fabric only: spine 0 dead for good; adaptive
                      // routing + degraded-mode admission carry the run
};
const char* to_string(FaultScenario scenario);

/// Builds the FaultPlan for `scenario` given the run geometry.
faults::FaultPlan make_fault_plan(FaultScenario scenario,
                                  std::uint64_t warmup_slots,
                                  std::uint64_t measure_slots);

const char* to_string(sw::SchedulerKind kind);
const char* to_string(sw::FlpprPolicy policy);

/// One fully resolved grid point.
struct JobSpec {
  std::size_t index = 0;  // position in the expanded grid
  SimKind sim = SimKind::kSwitch;
  sw::SchedulerKind scheduler = sw::SchedulerKind::kFlppr;
  int iterations = 0;  // scheduler depth/iterations; 0 = kind default
  sw::FlpprPolicy policy = sw::FlpprPolicy::kEarliestFirst;
  int ports = 64;      // fabric: switch radix (hosts = radix^2/2)
  int receivers = 2;
  TrafficKind traffic = TrafficKind::kUniform;
  double mean_burst = 16.0;  // bursty traffic only
  double load = 0.5;
  FaultScenario fault = FaultScenario::kNone;
  int repetition = 0;
  std::uint64_t seed = 0;  // derived; see derive_job_seed
  std::uint64_t warmup_slots = 2'000;
  std::uint64_t measure_slots = 20'000;
  // Serving axes (kServe only; zero/default on every other sim kind so
  // legacy jobs keep their exact labels and checkpoint bytes).
  std::int64_t clients = 0;
  api::ArrivalKind arrival = api::ArrivalKind::kPoisson;
  int tenants = 4;
  // Topology axes (kTopo only; defaults everywhere else so legacy jobs
  // keep their exact labels and checkpoint bytes). For topo jobs
  // `ports` is the host count (32/128/512/2048 fit every generator).
  topo::TopoKind topology = topo::TopoKind::kFatTree;
  topo::FcKind flow_control = topo::FcKind::kCredit;
  topo::RouteKind routing = topo::RouteKind::kDestMod;

  /// Stable human/machine identifier carrying every axis value, e.g.
  /// "switch/flppr/K0/earliest/N64/R2/uniform/load0.700/none/rep0".
  /// Serve jobs append "/C<clients>/<arrival>/T<tenants>"; topo jobs
  /// append "/<topology>/<flow_control>/<routing>".
  /// campaign_compare matches jobs across documents by this label.
  std::string label() const;

  /// Checkpoint serialization: every axis value, so a resume can verify
  /// a state/done file belongs to the grid point it is about to skip.
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, index);
    ckpt::field(a, sim);
    ckpt::field(a, scheduler);
    ckpt::field(a, iterations);
    ckpt::field(a, policy);
    ckpt::field(a, ports);
    ckpt::field(a, receivers);
    ckpt::field(a, traffic);
    ckpt::field(a, mean_burst);
    ckpt::field(a, load);
    ckpt::field(a, fault);
    ckpt::field(a, repetition);
    ckpt::field(a, seed);
    ckpt::field(a, warmup_slots);
    ckpt::field(a, measure_slots);
    ckpt::field(a, clients);
    ckpt::field(a, arrival);
    ckpt::field(a, tenants);
    ckpt::field(a, topology);
    ckpt::field(a, flow_control);
    ckpt::field(a, routing);
  }
};

/// SplitMix64-based per-job seed: mixes the campaign seed and the job
/// index through two finalizer steps. Depends only on (campaign_seed,
/// job_index) — never on thread count or execution order.
std::uint64_t derive_job_seed(std::uint64_t campaign_seed,
                              std::uint64_t job_index);

/// The declarative grid. expand() walks axes outermost-to-innermost in
/// declaration order below, assigning consecutive job indices.
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<SimKind> sims = {SimKind::kSwitch};
  std::vector<sw::SchedulerKind> schedulers = {sw::SchedulerKind::kFlppr};
  std::vector<int> iterations = {0};
  std::vector<sw::FlpprPolicy> policies = {sw::FlpprPolicy::kEarliestFirst};
  std::vector<int> ports = {64};
  std::vector<int> receivers = {2};
  std::vector<TrafficKind> traffics = {TrafficKind::kUniform};
  double mean_burst = 16.0;
  std::vector<double> loads = {0.5};
  // Serving axes, iterated only for SimKind::kServe entries (other sim
  // kinds take one pass with clients = 0, so a mixed grid never
  // duplicates legacy jobs).
  std::vector<std::int64_t> clients = {4096};
  std::vector<api::ArrivalKind> arrivals = {api::ArrivalKind::kPoisson};
  int tenants = 4;
  // Topology axes, iterated only for SimKind::kTopo entries (same
  // single-pass rule as the serving axes above).
  std::vector<topo::TopoKind> topologies = {topo::TopoKind::kFatTree};
  std::vector<topo::FcKind> flow_controls = {topo::FcKind::kCredit};
  std::vector<topo::RouteKind> routings = {topo::RouteKind::kDestMod};
  std::vector<FaultScenario> faults = {FaultScenario::kNone};
  int repetitions = 1;
  std::uint64_t campaign_seed = 0xCA3B'A167ULL;
  std::uint64_t warmup_slots = 2'000;
  std::uint64_t measure_slots = 20'000;

  std::size_t job_count() const;

  /// Expands the grid into jobs with derived seeds. Validates axis
  /// compatibility (e.g. switch-only fault scenarios never paired with
  /// the fabric simulator) via OSMOSIS_REQUIRE.
  std::vector<JobSpec> expand() const;
};

}  // namespace osmosis::exec
