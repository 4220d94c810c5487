#pragma once
// Seeded property-based trial generation for the chaos soak subsystem
// (DESIGN.md §12). generate_trial(campaign_seed, trial_index) derives a
// complete, valid randomized experiment — simulator kind, geometry,
// scheduler, traffic mix, horizons, and a weighted-grammar FaultPlan —
// deterministically from the pair, using the same SplitMix64 job-seed
// derivation as the campaign runner. The same (seed, index) always
// yields byte-identical TrialSpecs regardless of thread count or
// generation order, which is what makes soak failures replayable.
//
// Validity is enforced twice: the per-simulator grammars only emit
// events each constructor accepts (kind whitelists, index ranges,
// transient-only kinds, never all multi-planes down at once), and every
// candidate event is additionally vetted through the management layer's
// mgmt::validate_fault_plan before being committed to the plan.

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/sw/scheduler.hpp"
#include "src/topo/flow_control.hpp"
#include "src/topo/topology.hpp"

namespace osmosis::chaos {

/// Which simulator a trial drives. Distinct from exec::SimKind because
/// chaos trials also cover the multi-plane fabric (which campaigns do
/// not) and the mapping must stay stable for repro files.
enum class TrialSim : std::uint8_t {
  kSwitch = 0,       // sw::SwitchSim, slot-accurate single stage
  kEventSwitch = 1,  // sw::EventSwitchSim, event-driven ns timeline
  kFabric = 2,       // topo::TopoSim leaf-spine preset, credits
  kMultiPlane = 3,   // fabric::MultiPlaneSim, striped planes + resequencer
  kTopo = 4,         // topo::TopoSim, topology x flow-control zoo
};

const char* to_string(TrialSim s);
/// Inverse of to_string; aborts (OSMOSIS_REQUIRE) on an unknown name.
TrialSim trial_sim_from_string(const std::string& name);

/// Stable scheduler-kind names for labels and osmosis.repro.v1 files.
const char* scheduler_name(sw::SchedulerKind k);
sw::SchedulerKind scheduler_from_name(const std::string& name);

/// One fully specified randomized experiment. Everything a simulator
/// needs is here, so a spec round-tripped through a repro file replays
/// bit-identically.
struct TrialSpec {
  std::uint64_t campaign_seed = 1;
  std::uint64_t trial_index = 0;
  /// exec::derive_job_seed(campaign_seed, trial_index); seeds traffic,
  /// randomized schedulers, and the injector's error-roll stream.
  std::uint64_t seed = 0;

  TrialSim sim = TrialSim::kSwitch;
  // Geometry. `ports` is host ports for the switch kinds and the
  // multi-plane fabric, and the switch radix for the two-stage fabric
  // (whose host count is radix^2/2).
  int ports = 16;
  int planes = 4;     // multi-plane only
  int receivers = 2;  // switch kinds + multi-plane
  sw::SchedulerKind scheduler = sw::SchedulerKind::kFlppr;

  // Topology-zoo axes (kTopo only; `ports` is the host count there).
  // `failed_switches` are construction-time permanent failures, only
  // rolled where the topology can route around them (fat-tree non-leaf
  // switches, Clos middles) and vetted by mgmt::validate_topology.
  topo::TopoKind topology = topo::TopoKind::kFatTree;
  topo::FcKind flow_control = topo::FcKind::kCredit;
  topo::RouteKind routing = topo::RouteKind::kDestMod;
  std::vector<int> failed_switches;

  // Graceful degradation (two-stage fabric only): fault-aware adaptive
  // routing unlocks permanent spine faults in the grammar, and admission
  // additionally sheds at the sources while capacity is reduced (the
  // monitor's shed accounting keeps conservation exact either way).
  bool adaptive_routing = false;
  bool admission = false;

  // Traffic mix.
  bool bursty = false;
  double load = 0.6;       // per source (per plane line for multi-plane)
  double mean_burst = 8.0; // bursty only

  // Horizons, in cell slots (the event sim converts to ns internally).
  std::uint64_t warmup_slots = 256;
  std::uint64_t measure_slots = 4'096;
  std::uint64_t drain_max_slots = 20'000;

  // Seeded fault schedule (already .seeded() from `seed`).
  faults::FaultPlan plan;

  // Shrinker state: traffic sources whose arrivals are masked (sampled
  // then discarded, so every other source's stream is untouched).
  std::vector<int> muted_sources;

  // Deliberate accounting defect (test hook; kNone in real soaks).
  Defect defect = Defect::kNone;
  std::uint64_t defect_period = 7;

  // Liveness watchdog horizon handed to the monitor.
  std::uint64_t deadlock_slots = 2'048;

  /// Number of traffic endpoints (== ports except the two-stage fabric,
  /// where it is the host count radix^2/2).
  int sources() const;

  /// Human-readable one-liner: "t0042 switch/flppr p16 r2 uniform
  /// l0.60 w256 m4096 faults=2".
  std::string label() const;
};

/// Derives trial `trial_index` of the campaign seeded `campaign_seed`.
/// Pure function of its arguments.
TrialSpec generate_trial(std::uint64_t campaign_seed,
                         std::uint64_t trial_index);

}  // namespace osmosis::chaos
