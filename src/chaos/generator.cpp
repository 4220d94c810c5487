#include "src/chaos/generator.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/core/config.hpp"
#include "src/exec/campaign.hpp"
#include "src/mgmt/config_check.hpp"
#include "src/sim/rng.hpp"
#include "src/sw/switch_faults.hpp"
#include "src/util/log.hpp"

namespace osmosis::chaos {
namespace {

/// Weighted pick: returns an index into `weights`.
std::size_t pick_weighted(sim::Rng& rng, const std::vector<int>& weights) {
  int total = 0;
  for (int w : weights) total += w;
  int roll = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(total)));
  for (std::size_t i = 0; i < weights.size(); ++i) {
    roll -= weights[i];
    if (roll < 0) return i;
  }
  return weights.size() - 1;
}

/// Count of switches in the stage TopoSim aims mid-run plane faults at
/// (top level of a folded tree, middle column of an unfolded MIN) —
/// mirrors the top_stage_ derivation in TopoSim's constructor.
int topo_fault_planes(const TrialSpec& spec) {
  const topo::Topology t = topo::make_topology(
      spec.topology, spec.ports, spec.routing, spec.failed_switches);
  int max_stage = 1;
  for (const topo::SwitchSpec& s : t.switches)
    max_stage = std::max(max_stage, s.stage);
  const int fault_stage = t.folded ? max_stage : (t.stages + 1) / 2;
  return static_cast<int>(t.stage_switches(fault_stage).size());
}

/// Management-layer vetting: would the plan plus this event still pass
/// mgmt::validate_fault_plan against a config mirroring the trial's
/// geometry?
bool event_valid(const TrialSpec& spec, const faults::FaultEvent& e) {
  core::OsmosisConfig mirror;
  mirror.ports = spec.sources();
  mirror.receivers = spec.receivers;
  if (spec.sim == TrialSim::kSwitch || spec.sim == TrialSim::kEventSwitch) {
    mirror.fibers = sw::broadcast_fibers(spec.ports);
    mirror.wavelengths = spec.ports / mirror.fibers;
  }
  // Parallel-path count for the permanent-disconnection check: the
  // fabric's spines or the multi-plane's planes.
  int parallel_paths = 0;
  if (spec.sim == TrialSim::kFabric) parallel_paths = spec.ports / 2;
  if (spec.sim == TrialSim::kMultiPlane) parallel_paths = spec.planes;
  if (spec.sim == TrialSim::kTopo) parallel_paths = topo_fault_planes(spec);
  faults::FaultPlan probe = spec.plan;
  probe.add(e);
  return mgmt::config_ok(
      mgmt::validate_fault_plan(mirror, probe, parallel_paths));
}

bool windows_overlap(const faults::FaultEvent& a, const faults::FaultEvent& b) {
  const std::uint64_t a_end = a.transient() ? a.end_slot() : ~0ULL;
  const std::uint64_t b_end = b.transient() ? b.end_slot() : ~0ULL;
  return a.at_slot < b_end && b.at_slot < a_end;
}

/// True when the candidate overlaps an existing event of the same kind
/// on the same target. The injector composes *different* kinds on one
/// input (refcounted masks), but same-kind same-target nesting would
/// repair early on the first window's end — keep the grammar clear of it.
bool same_target_overlap(const faults::FaultPlan& plan,
                         const faults::FaultEvent& e) {
  for (const auto& prev : plan.events()) {
    if (prev.kind != e.kind) continue;
    if (prev.kind != faults::FaultKind::kGrantCorruption &&
        (prev.a != e.a || prev.b != e.b))
      continue;
    if (windows_overlap(prev, e)) return true;
  }
  return false;
}

/// Parallel-path guard: adding `e` must never leave an instant with
/// every plane/spine down (the re-steering simulators abort when there
/// is nothing to re-steer onto). Only kPlaneFailure events count —
/// fabric plans also carry adapter stalls, whose target indices range
/// over hosts, not spines. The down-set only changes at window begins,
/// so checking each begin instant suffices.
bool keeps_a_plane_alive(const faults::FaultPlan& plan,
                         const faults::FaultEvent& e, int planes) {
  std::vector<faults::FaultEvent> all;
  for (const auto& w : plan.events())
    if (w.kind == faults::FaultKind::kPlaneFailure) all.push_back(w);
  all.push_back(e);
  for (const auto& at : all) {
    std::vector<std::uint8_t> down(static_cast<std::size_t>(planes), 0);
    for (const auto& w : all) {
      const std::uint64_t end = w.transient() ? w.end_slot() : ~0ULL;
      if (w.at_slot <= at.at_slot && at.at_slot < end)
        down[static_cast<std::size_t>(w.a)] = 1;
    }
    int alive = 0;
    for (std::uint8_t d : down)
      if (!d) ++alive;
    if (alive == 0) return false;
  }
  return true;
}

/// Window placement shared by all grammars: begins mid-warmup through
/// late measurement, and transient windows always close by the end of
/// the measurement phase so the drain starts fault-free (a window still
/// open when the drain budget expires would strand cells and read as a
/// false liveness violation).
std::uint64_t roll_at_slot(sim::Rng& rng, const TrialSpec& spec) {
  const std::uint64_t lo = spec.warmup_slots / 2;
  const std::uint64_t hi = spec.warmup_slots + spec.measure_slots - 128;
  return lo + rng.uniform_int(hi - lo);
}

std::uint64_t roll_duration(sim::Rng& rng, const TrialSpec& spec,
                            std::uint64_t at_slot) {
  const std::uint64_t close_by = spec.warmup_slots + spec.measure_slots;
  const std::uint64_t room = close_by - at_slot;
  const std::uint64_t cap = std::min<std::uint64_t>(spec.measure_slots / 2,
                                                    room);
  if (cap <= 32) return std::max<std::uint64_t>(cap, 1);
  return 32 + rng.uniform_int(cap - 32);
}

/// Grammar for the two switch simulators: the five single-stage fault
/// kinds, weighted toward the data-path ones, with a small chance of a
/// permanent module death / fiber cut.
faults::FaultEvent roll_switch_event(sim::Rng& rng, const TrialSpec& spec) {
  static const std::vector<int> kWeights = {3, 2, 3, 2, 2};
  static const faults::FaultKind kKinds[] = {
      faults::FaultKind::kModuleDeath, faults::FaultKind::kFiberCut,
      faults::FaultKind::kBurstErrors, faults::FaultKind::kGrantCorruption,
      faults::FaultKind::kAdapterStall};
  faults::FaultEvent e;
  e.kind = kKinds[pick_weighted(rng, kWeights)];
  e.at_slot = roll_at_slot(rng, spec);
  e.duration_slots = roll_duration(rng, spec, e.at_slot);
  switch (e.kind) {
    case faults::FaultKind::kModuleDeath:
      e.a = static_cast<int>(rng.uniform_int(spec.ports));
      e.b = static_cast<int>(rng.uniform_int(spec.receivers));
      if (rng.bernoulli(0.12)) e.duration_slots = 0;  // permanent
      break;
    case faults::FaultKind::kFiberCut:
      e.a = static_cast<int>(
          rng.uniform_int(sw::broadcast_fibers(spec.ports)));
      if (rng.bernoulli(0.12)) e.duration_slots = 0;  // permanent
      break;
    case faults::FaultKind::kBurstErrors:
      e.a = rng.bernoulli(0.2)
                ? -1
                : static_cast<int>(rng.uniform_int(spec.ports));
      e.rate = 0.05 + 0.55 * rng.uniform();
      break;
    case faults::FaultKind::kGrantCorruption:
      e.a = -1;
      e.rate = 0.05 + 0.45 * rng.uniform();
      break;
    case faults::FaultKind::kAdapterStall:
      e.a = static_cast<int>(rng.uniform_int(spec.ports));
      break;
    case faults::FaultKind::kPlaneFailure:
      break;  // unreachable
  }
  return e;
}

/// Grammar for the two-stage fabric: spine failures and host adapter
/// stalls (the only kinds its constructor accepts). Spine failures are
/// transient-only in legacy mode; adaptive routing unlocks a permanent
/// chance (the cross-event guard keeps a surviving spine) plus the
/// reroute-inducing revive/re-fail mixes that exercise the hysteresis.
faults::FaultEvent roll_fabric_event(sim::Rng& rng, const TrialSpec& spec) {
  const int spines = spec.ports / 2;  // radix/2 spine switches
  faults::FaultEvent e;
  e.kind = rng.bernoulli(0.6) ? faults::FaultKind::kPlaneFailure
                              : faults::FaultKind::kAdapterStall;
  e.at_slot = roll_at_slot(rng, spec);
  e.duration_slots = roll_duration(rng, spec, e.at_slot);
  if (e.kind == faults::FaultKind::kPlaneFailure) {
    e.a = static_cast<int>(rng.uniform_int(spines));
    if (spec.adaptive_routing && spines > 1 && rng.bernoulli(0.25))
      e.duration_slots = 0;  // permanent: adaptive routing carries it
  } else {
    e.a = static_cast<int>(rng.uniform_int(spec.sources()));
  }
  return e;
}

/// Grammar for the multi-plane fabric: plane failures only, with a small
/// permanent chance; the caller enforces the >= 1 live plane invariant.
faults::FaultEvent roll_multiplane_event(sim::Rng& rng,
                                         const TrialSpec& spec) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kPlaneFailure;
  e.at_slot = roll_at_slot(rng, spec);
  e.duration_slots = roll_duration(rng, spec, e.at_slot);
  e.a = static_cast<int>(rng.uniform_int(spec.planes));
  if (spec.planes > 1 && rng.bernoulli(0.10)) e.duration_slots = 0;
  return e;
}

/// Grammar for the topology zoo: transient freezes of fault-stage
/// switches (TopoSim rejects permanent mid-run faults — construction-
/// time failed_switches cover the permanent case) plus host adapter
/// stalls, the only two kinds its constructor accepts.
faults::FaultEvent roll_topo_event(sim::Rng& rng, const TrialSpec& spec,
                                   int planes) {
  faults::FaultEvent e;
  e.kind = rng.bernoulli(0.6) ? faults::FaultKind::kPlaneFailure
                              : faults::FaultKind::kAdapterStall;
  e.at_slot = roll_at_slot(rng, spec);
  e.duration_slots = roll_duration(rng, spec, e.at_slot);
  if (e.kind == faults::FaultKind::kPlaneFailure)
    e.a = static_cast<int>(rng.uniform_int(planes));
  else
    e.a = static_cast<int>(rng.uniform_int(spec.sources()));
  return e;
}

}  // namespace

const char* to_string(TrialSim s) {
  switch (s) {
    case TrialSim::kSwitch:
      return "switch";
    case TrialSim::kEventSwitch:
      return "event-switch";
    case TrialSim::kFabric:
      return "fabric";
    case TrialSim::kMultiPlane:
      return "multiplane";
    case TrialSim::kTopo:
      return "topo";
  }
  return "unknown";
}

TrialSim trial_sim_from_string(const std::string& name) {
  for (TrialSim s : {TrialSim::kSwitch, TrialSim::kEventSwitch,
                     TrialSim::kFabric, TrialSim::kMultiPlane,
                     TrialSim::kTopo}) {
    if (name == to_string(s)) return s;
  }
  OSMOSIS_REQUIRE(false, "unknown trial simulator name: " << name);
  return TrialSim::kSwitch;
}

const char* scheduler_name(sw::SchedulerKind k) {
  switch (k) {
    case sw::SchedulerKind::kIslip:
      return "islip";
    case sw::SchedulerKind::kPim:
      return "pim";
    case sw::SchedulerKind::kPipelinedIslip:
      return "pislip";
    case sw::SchedulerKind::kFlppr:
      return "flppr";
    case sw::SchedulerKind::kTdm:
      return "tdm";
    case sw::SchedulerKind::kWfa:
      return "wfa";
  }
  return "unknown";
}

sw::SchedulerKind scheduler_from_name(const std::string& name) {
  for (sw::SchedulerKind k :
       {sw::SchedulerKind::kIslip, sw::SchedulerKind::kPim,
        sw::SchedulerKind::kPipelinedIslip, sw::SchedulerKind::kFlppr,
        sw::SchedulerKind::kTdm, sw::SchedulerKind::kWfa}) {
    if (name == scheduler_name(k)) return k;
  }
  OSMOSIS_REQUIRE(false, "unknown scheduler name: " << name);
  return sw::SchedulerKind::kFlppr;
}

int TrialSpec::sources() const {
  return sim == TrialSim::kFabric ? ports * ports / 2 : ports;
}

std::string TrialSpec::label() const {
  std::ostringstream os;
  os << 't' << std::setw(4) << std::setfill('0') << trial_index << ' '
     << to_string(sim) << '/' << scheduler_name(scheduler) << " p" << ports;
  if (sim == TrialSim::kMultiPlane) os << " x" << planes;
  if (sim == TrialSim::kTopo)
    os << ' ' << topo::to_string(topology) << '/'
       << topo::to_string(flow_control) << '/' << topo::to_string(routing);
  os << " r" << receivers << ' ' << (bursty ? "bursty" : "uniform") << " l"
     << std::fixed << std::setprecision(2) << load << " w" << warmup_slots
     << " m" << measure_slots << " faults=" << plan.size();
  if (adaptive_routing) os << " adaptive";
  if (admission) os << " admit";
  if (!failed_switches.empty()) os << " dead_sw=" << failed_switches.size();
  if (!muted_sources.empty()) os << " muted=" << muted_sources.size();
  if (defect != Defect::kNone) os << " defect=" << to_string(defect);
  return os.str();
}

TrialSpec generate_trial(std::uint64_t campaign_seed,
                         std::uint64_t trial_index) {
  TrialSpec spec;
  spec.campaign_seed = campaign_seed;
  spec.trial_index = trial_index;
  spec.seed = exec::derive_job_seed(campaign_seed, trial_index);
  sim::Rng rng(spec.seed);

  // Simulator kind, then geometry from its legal menu.
  static const TrialSim kSims[] = {TrialSim::kSwitch, TrialSim::kEventSwitch,
                                   TrialSim::kFabric, TrialSim::kMultiPlane,
                                   TrialSim::kTopo};
  spec.sim = kSims[pick_weighted(rng, {7, 4, 5, 4, 5})];
  switch (spec.sim) {
    case TrialSim::kSwitch: {
      static const int kPorts[] = {8, 16, 32};
      spec.ports = kPorts[pick_weighted(rng, {1, 2, 1})];
      spec.receivers = rng.bernoulli(0.3) ? 1 : 2;
      static const sw::SchedulerKind kScheds[] = {
          sw::SchedulerKind::kFlppr, sw::SchedulerKind::kIslip,
          sw::SchedulerKind::kPim,   sw::SchedulerKind::kPipelinedIslip,
          sw::SchedulerKind::kWfa,   sw::SchedulerKind::kTdm};
      spec.scheduler = kScheds[pick_weighted(rng, {3, 2, 2, 2, 1, 1})];
      break;
    }
    case TrialSim::kEventSwitch: {
      // The event sim pays per-event overhead; keep it on the small
      // geometries so trials stay sub-second.
      spec.ports = rng.bernoulli(0.5) ? 8 : 16;
      spec.receivers = rng.bernoulli(0.3) ? 1 : 2;
      static const sw::SchedulerKind kScheds[] = {
          sw::SchedulerKind::kFlppr, sw::SchedulerKind::kIslip,
          sw::SchedulerKind::kPim, sw::SchedulerKind::kPipelinedIslip};
      spec.scheduler = kScheds[pick_weighted(rng, {3, 2, 2, 2})];
      break;
    }
    case TrialSim::kFabric: {
      // `ports` is the switch radix; hosts = radix^2/2.
      spec.ports = rng.bernoulli(0.65) ? 4 : 8;
      spec.receivers = 1;
      // Immediate-issue kinds only (credit check must hold at issue).
      static const sw::SchedulerKind kScheds[] = {
          sw::SchedulerKind::kIslip, sw::SchedulerKind::kPim,
          sw::SchedulerKind::kTdm, sw::SchedulerKind::kWfa};
      spec.scheduler = kScheds[pick_weighted(rng, {3, 2, 1, 1})];
      // Graceful degradation: half the fabric trials run fault-aware
      // adaptive routing, and half of those also shed at the sources.
      spec.adaptive_routing = rng.bernoulli(0.5);
      spec.admission = spec.adaptive_routing && rng.bernoulli(0.5);
      break;
    }
    case TrialSim::kMultiPlane: {
      spec.ports = rng.bernoulli(0.5) ? 8 : 16;
      spec.planes = 2 + static_cast<int>(rng.uniform_int(3));
      spec.receivers = rng.bernoulli(0.3) ? 2 : 1;
      static const sw::SchedulerKind kScheds[] = {
          sw::SchedulerKind::kFlppr, sw::SchedulerKind::kIslip,
          sw::SchedulerKind::kPim, sw::SchedulerKind::kPipelinedIslip};
      spec.scheduler = kScheds[pick_weighted(rng, {3, 2, 2, 2})];
      break;
    }
    case TrialSim::kTopo: {
      // `ports` is the host count; 32 is the smallest shape every
      // generator accepts (128 keeps the bigger recursions honest).
      spec.ports = rng.bernoulli(0.75) ? 32 : 128;
      spec.receivers = 1;
      static const topo::TopoKind kTopos[] = {
          topo::TopoKind::kFatTree, topo::TopoKind::kClos,
          topo::TopoKind::kOmega, topo::TopoKind::kBanyan,
          topo::TopoKind::kBenes};
      spec.topology = kTopos[pick_weighted(rng, {3, 3, 2, 2, 2})];
      static const topo::FcKind kFcs[] = {topo::FcKind::kCredit,
                                          topo::FcKind::kRelayed,
                                          topo::FcKind::kWormholeVc};
      spec.flow_control = kFcs[pick_weighted(rng, {3, 2, 3})];
      spec.routing = rng.bernoulli(0.3) ? topo::RouteKind::kHashSpread
                                        : topo::RouteKind::kDestMod;
      // Immediate-issue kinds only (credit check must hold at issue;
      // wormhole routes per-flit and ignores the scheduler entirely).
      static const sw::SchedulerKind kScheds[] = {
          sw::SchedulerKind::kIslip, sw::SchedulerKind::kPim,
          sw::SchedulerKind::kTdm, sw::SchedulerKind::kWfa};
      spec.scheduler = kScheds[pick_weighted(rng, {3, 2, 1, 1})];
      // Construction-time permanent failure where path diversity exists
      // (fat-tree non-leaf switches, Clos middles): roll a switch id and
      // keep it only when the management validator accepts the wounded
      // shape. A rejected roll simply runs the trial fault-free there.
      if ((spec.topology == topo::TopoKind::kFatTree ||
           spec.topology == topo::TopoKind::kClos) &&
          rng.bernoulli(0.35)) {
        const topo::Topology whole =
            topo::make_topology(spec.topology, spec.ports);
        const int id =
            static_cast<int>(rng.uniform_int(whole.switch_count()));
        if (mgmt::config_ok(
                mgmt::validate_topology(spec.topology, spec.ports, {id})))
          spec.failed_switches = {id};
      }
      break;
    }
  }

  // Traffic mix. Loads are quantized to 0.05 steps for readable labels;
  // the multi-plane per-plane-line load and the fabric host load run a
  // little lower so faulted trials still drain inside the budget.
  spec.bursty = rng.bernoulli(0.35);
  switch (spec.sim) {
    case TrialSim::kFabric:
      spec.load = 0.30 + 0.05 * static_cast<double>(rng.uniform_int(10));
      break;
    case TrialSim::kMultiPlane:
      spec.load = 0.20 + 0.05 * static_cast<double>(rng.uniform_int(9));
      break;
    case TrialSim::kTopo:
      // Deep MINs saturate well below a single stage (bench_vi_c shows
      // wormhole Benes peaking near 0.26) — keep the offered load under
      // saturation so faulted backlogs still drain inside the budget.
      spec.load = spec.flow_control == topo::FcKind::kWormholeVc
                      ? 0.10 + 0.05 * static_cast<double>(rng.uniform_int(4))
                      : 0.15 + 0.05 * static_cast<double>(rng.uniform_int(8));
      break;
    default:
      spec.load = 0.30 + 0.05 * static_cast<double>(rng.uniform_int(11));
      break;
  }
  static const double kBursts[] = {4.0, 8.0, 16.0};
  spec.mean_burst = kBursts[rng.uniform_int(3)];

  // Horizons.
  spec.warmup_slots = rng.bernoulli(0.5) ? 128 : 256;
  spec.measure_slots = 1'024 * (2 + rng.uniform_int(3));

  // Fault schedule: 0-4 events from the per-simulator grammar, each
  // vetted by the management validator; a candidate that fails vetting
  // (or violates the cross-event constraints) is re-rolled a fixed
  // number of times so generation stays deterministic.
  const std::size_t kCountWeightsIdx =
      pick_weighted(rng, {1, 3, 3, 2, 1});  // 0..4 events
  const int topo_planes =
      spec.sim == TrialSim::kTopo ? topo_fault_planes(spec) : 0;
  for (std::size_t i = 0; i < kCountWeightsIdx; ++i) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      faults::FaultEvent e;
      switch (spec.sim) {
        case TrialSim::kSwitch:
        case TrialSim::kEventSwitch:
          e = roll_switch_event(rng, spec);
          break;
        case TrialSim::kFabric:
          e = roll_fabric_event(rng, spec);
          break;
        case TrialSim::kMultiPlane:
          e = roll_multiplane_event(rng, spec);
          break;
        case TrialSim::kTopo:
          e = roll_topo_event(rng, spec, topo_planes);
          break;
      }
      if (same_target_overlap(spec.plan, e)) continue;
      if (spec.sim == TrialSim::kMultiPlane &&
          !keeps_a_plane_alive(spec.plan, e, spec.planes))
        continue;
      // Topology zoo: a freeze is backpressure, not loss, but a window
      // with the whole fault stage frozen stalls the machine and burns
      // the drain budget — keep one stage switch running at all times.
      if (spec.sim == TrialSim::kTopo &&
          e.kind == faults::FaultKind::kPlaneFailure &&
          !keeps_a_plane_alive(spec.plan, e, topo_planes))
        continue;
      // Adaptive fabric: never leave an instant with every spine out —
      // with zero survivors nothing re-steers and permanents would make
      // the strand permanent.
      if (spec.sim == TrialSim::kFabric && spec.adaptive_routing &&
          e.kind == faults::FaultKind::kPlaneFailure &&
          !keeps_a_plane_alive(spec.plan, e, spec.ports / 2))
        continue;
      if (!event_valid(spec, e)) continue;
      spec.plan.add(e);
      break;
    }
  }
  std::uint64_t mix = spec.seed;  // splitmix64 advances its state in place
  spec.plan.seeded(sim::splitmix64(mix) ^ 0x05'0A'7EULL);

  // Permanent faults normally strand cells, so the drain can never
  // terminate on empty queues — cap the budget burned walking to it.
  // The adaptive fabric is the exception: it drains a permanent spine
  // cut completely, just slower, so its budget is DERIVED from the
  // surviving capacity (scale the fault-free budget by total/surviving
  // spines). The two-stage fabric's fault-free budget is bigger to begin
  // with: a TDM timetable drains a deep faulted backlog at ~1/radix
  // cells per slot per input.
  if (spec.sim == TrialSim::kFabric) {
    const int spines = spec.ports / 2;
    int dead = 0;
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(spines), 0);
    for (const auto& e : spec.plan.events())
      if (e.kind == faults::FaultKind::kPlaneFailure && !e.transient() &&
          !seen[static_cast<std::size_t>(e.a)]) {
        seen[static_cast<std::size_t>(e.a)] = 1;
        ++dead;
      }
    spec.drain_max_slots =
        80'000ULL * static_cast<std::uint64_t>(spines) /
        static_cast<std::uint64_t>(std::max(1, spines - dead));
  } else if (spec.sim == TrialSim::kTopo) {
    // Every topo fault is transient (construction-time failed_switches
    // are routed around, not drained around), so the run always empties
    // — but wormhole backlogs behind a long freeze clear one flit per
    // lane per slot, so give the zoo the campaign driver's budget.
    spec.drain_max_slots = 50'000;
  } else if (spec.plan.has_permanent_fault()) {
    spec.drain_max_slots = 4'096;
  } else {
    spec.drain_max_slots = 20'000;
  }
  return spec;
}

}  // namespace osmosis::chaos
