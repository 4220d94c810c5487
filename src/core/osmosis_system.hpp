#pragma once
// The top-level OSMOSIS public API: one object that assembles the
// demonstrator — broadcast-and-select optical crossbar, FLPPR-scheduled
// VOQ switch, cell format with guard/FEC budgets, fat-tree fabric
// sizing — and evaluates it against the Table 1 requirements.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/latency_budget.hpp"
#include "src/topo/sizing.hpp"
#include "src/phy/crossbar_optical.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/switch_sim.hpp"

namespace osmosis::core {

/// One row of the Table 1 requirements-compliance report.
struct ComplianceRow {
  std::string requirement;
  std::string target;
  std::string achieved;
  bool pass = false;
};

class OsmosisSystem {
 public:
  explicit OsmosisSystem(OsmosisConfig cfg = demonstrator_config());

  const OsmosisConfig& config() const { return cfg_; }

  // ---- single-stage switch -------------------------------------------------

  /// Simulates the single-stage switch under uniform Bernoulli load.
  sw::SwitchSimResult simulate_uniform(double load, std::uint64_t seed = 1,
                                       std::uint64_t measure_slots = 30'000,
                                       bool validate_optical = false) const;

  /// Simulates with an arbitrary traffic generator.
  sw::SwitchSimResult simulate(std::unique_ptr<sim::TrafficGen> traffic,
                               std::uint64_t measure_slots = 30'000,
                               bool validate_optical = false) const;

  /// Mean switch traversal in nanoseconds at the given load
  /// (cell cycles from simulation x the configured cycle time).
  double switch_latency_ns(double load, std::uint64_t seed = 1) const;

  // ---- optical datapath -----------------------------------------------------

  /// Power-budget audit of the Fig. 5 datapath.
  phy::PowerBudgetReport optical_budget() const;

  // ---- fabric ----------------------------------------------------------------

  /// Fat-tree sizing to reach cfg().fabric_ports endpoints.
  topo::FatTreeSizing fabric_sizing() const;

  /// Worst-case fabric latency with ASIC-mapped stages and the
  /// machine-room cable budget (§III: target < 500 ns).
  double fabric_latency_ns() const;

  // ---- Table 1 ---------------------------------------------------------------

  /// Runs the measurements and builds the compliance report. Slots
  /// controls simulation length (larger = tighter estimates).
  std::vector<ComplianceRow> check_requirements(
      std::uint64_t measure_slots = 30'000) const;

 private:
  sw::SwitchSimConfig sim_config() const;

  OsmosisConfig cfg_;
};

}  // namespace osmosis::core
