#include "src/chaos/trial.hpp"

#include <memory>
#include <utility>

#include "src/exec/campaign.hpp"
#include "src/fabric/multiplane.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/event_switch_sim.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/topo/topo_sim.hpp"

namespace osmosis::chaos {
namespace {

/// Masks a set of sources out of an inner generator by sampling it and
/// discarding the arrival. Sampling (rather than skipping) keeps the
/// inner RNG stream aligned, so every unmuted source sees exactly the
/// arrivals it saw before the mask — the property the shrinker's
/// source-reduction pass depends on.
class MaskedTraffic final : public sim::TrafficGen {
 public:
  MaskedTraffic(std::unique_ptr<sim::TrafficGen> inner,
                const std::vector<int>& muted)
      : inner_(std::move(inner)),
        muted_(static_cast<std::size_t>(inner_->ports()), 0) {
    for (int m : muted)
      if (m >= 0 && m < inner_->ports())
        muted_[static_cast<std::size_t>(m)] = 1;
  }

  int ports() const override { return inner_->ports(); }
  double offered_load() const override { return inner_->offered_load(); }
  bool sample(int input, sim::Arrival& out) override {
    const bool got = inner_->sample(input, out);
    return muted_[static_cast<std::size_t>(input)] ? false : got;
  }

 private:
  std::unique_ptr<sim::TrafficGen> inner_;
  std::vector<std::uint8_t> muted_;
};

std::unique_ptr<sim::TrafficGen> make_traffic(const TrialSpec& spec,
                                              int sources,
                                              std::uint64_t seed,
                                              double load_override = -1.0) {
  const double load = load_override < 0.0 ? spec.load : load_override;
  std::unique_ptr<sim::TrafficGen> gen =
      spec.bursty
          ? sim::make_bursty(sources, load, spec.mean_burst, seed)
          : sim::make_uniform(sources, load, seed);
  if (!spec.muted_sources.empty())
    gen = std::make_unique<MaskedTraffic>(std::move(gen),
                                          spec.muted_sources);
  return gen;
}

MonitorConfig monitor_config(const TrialSpec& spec) {
  MonitorConfig mon;
  mon.deadlock_slots = spec.deadlock_slots;
  mon.defect = spec.defect;
  mon.defect_period = spec.defect_period;
  return mon;
}

TrialResult from_monitor(const InvariantMonitor& m) {
  TrialResult r;
  r.violated = !m.ok();
  r.violations = m.violations();
  r.checks = m.checks();
  r.offered = m.offered_cells();
  r.delivered = m.delivered_cells();
  r.first_violation_slot = m.first_violation_slot();
  r.first_violation = m.first_violation();
  r.invariant = violation_invariant(r.first_violation);
  r.violation_log = m.violation_log();
  return r;
}

}  // namespace

std::string violation_invariant(const std::string& message) {
  const auto space = message.find(' ');
  if (space == std::string::npos) return "";
  const auto colon = message.find(':', space);
  if (colon == std::string::npos) return "";
  return message.substr(space + 1, colon - space - 1);
}

TrialResult run_trial(const TrialSpec& spec) {
  const std::uint64_t traffic_seed = exec::derive_job_seed(spec.seed, 1);
  switch (spec.sim) {
    case TrialSim::kSwitch: {
      sw::SwitchSimConfig c;
      c.ports = spec.ports;
      c.sched.kind = spec.scheduler;
      c.sched.receivers = spec.receivers;
      c.sched.seed = exec::derive_job_seed(spec.seed, 2);
      c.warmup_slots = spec.warmup_slots;
      c.measure_slots = spec.measure_slots;
      c.drain_max_slots = spec.drain_max_slots;
      c.fault_plan = spec.plan;
      c.monitor = monitor_config(spec);
      sw::SwitchSim sim(c, make_traffic(spec, spec.sources(), traffic_seed));
      sim.run();
      return from_monitor(sim.monitor());
    }
    case TrialSim::kEventSwitch: {
      sw::EventSwitchConfig c;
      c.ports = spec.ports;
      c.sched.kind = spec.scheduler;
      c.sched.receivers = spec.receivers;
      c.sched.seed = exec::derive_job_seed(spec.seed, 2);
      c.warmup_ns = static_cast<double>(spec.warmup_slots) * c.cell_ns;
      c.measure_ns = static_cast<double>(spec.measure_slots) * c.cell_ns;
      c.drain_max_cycles = spec.drain_max_slots;
      c.fault_plan = spec.plan;
      c.monitor = monitor_config(spec);
      sw::EventSwitchSim sim(c,
                             make_traffic(spec, spec.sources(), traffic_seed));
      sim.run();
      return from_monitor(sim.monitor());
    }
    case TrialSim::kFabric: {
      // The leaf-spine preset: the ports axis is the switch radix.
      topo::TopoSimConfig c = topo::leaf_spine_config(spec.ports);
      c.scheduler = spec.scheduler;
      c.warmup_slots = spec.warmup_slots;
      c.measure_slots = spec.measure_slots;
      c.drain_max_slots = spec.drain_max_slots;
      c.fault_plan = spec.plan;
      c.monitor = monitor_config(spec);
      c.adaptive_routing = spec.adaptive_routing;
      c.admission = spec.admission;
      topo::TopoSim sim(c, make_traffic(spec, spec.sources(), traffic_seed));
      sim.run();
      return from_monitor(sim.monitor());
    }
    case TrialSim::kMultiPlane: {
      fabric::MultiPlaneConfig c;
      c.ports = spec.ports;
      c.planes = spec.planes;
      c.scheduler = spec.scheduler;
      c.receivers = spec.receivers;
      c.warmup_slots = spec.warmup_slots;
      c.measure_slots = spec.measure_slots;
      c.drain_max_slots = spec.drain_max_slots;
      c.fault_plan = spec.plan;
      c.monitor = monitor_config(spec);
      std::vector<std::unique_ptr<sim::TrafficGen>> per_plane;
      for (int p = 0; p < spec.planes; ++p) {
        per_plane.push_back(make_traffic(
            spec, spec.ports,
            exec::derive_job_seed(spec.seed,
                                  16 + static_cast<std::uint64_t>(p))));
      }
      fabric::MultiPlaneSim sim(c, std::move(per_plane));
      sim.run();
      return from_monitor(sim.monitor());
    }
    case TrialSim::kTopo: {
      topo::TopoSimConfig c;
      c.topology = spec.topology;
      c.hosts = spec.ports;  // topo trials: the ports axis is hosts
      c.routing = spec.routing;
      c.failed_switches = spec.failed_switches;
      c.fc.kind = spec.flow_control;
      c.scheduler = spec.scheduler;
      c.warmup_slots = spec.warmup_slots;
      c.measure_slots = spec.measure_slots;
      c.drain_max_slots = spec.drain_max_slots;
      c.fault_plan = spec.plan;
      c.monitor = monitor_config(spec);
      // spec.load is per-host cell load; wormhole injects whole packets,
      // so scale the packet probability to keep the flit load matched.
      const double p = spec.flow_control == topo::FcKind::kWormholeVc
                           ? spec.load / c.fc.flits_per_packet
                           : spec.load;
      topo::TopoSim sim(
          c, make_traffic(spec, spec.sources(), traffic_seed, p));
      sim.run();
      return from_monitor(sim.monitor());
    }
  }
  return TrialResult{};
}

}  // namespace osmosis::chaos
