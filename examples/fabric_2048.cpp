// Machine-scale example: the 2048-port HPC interconnect of Table 1,
// built as a two-level (three-stage) fat tree of 64-port OSMOSIS
// switches. Prints the full inventory / power / latency roll-up and then
// runs a scaled-down cell-accurate fabric simulation (same topology
// shape, radix 16 => 128 hosts) to demonstrate losslessness, ordering
// and the flow-control behaviour at machine-room cable delays.
//
//   ./example_fabric_2048 [--radix=16] [--load=0.8] [--slots=15000]

#include <iostream>

#include "src/core/osmosis_system.hpp"
#include "src/fabric/placement.hpp"
#include "src/power/power_model.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/cli.hpp"
#include "src/util/units.hpp"

using namespace osmosis;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  // ---- the real machine, analytically --------------------------------------
  core::OsmosisSystem sys;
  const auto sizing = sys.fabric_sizing();
  std::cout << "=== 2048-port OSMOSIS fabric ===\n"
            << sizing.to_string() << "\n"
            << "aggregate bandwidth: "
            << sizing.endpoint_ports * sys.config().cell.line_rate_gbps /
                   1000.0
            << " Tb/s raw\n"
            << "worst-case latency: " << sys.fabric_latency_ns()
            << " ns (ASIC stages + "
            << util::fiber_delay_ns(sys.config().machine_diameter_m)
            << " ns cabling)\n";

  const auto pw =
      power::fabric_power(power::osmosis_profile(), 2048, 320.0, 256.0);
  std::cout << "power: " << pw.total_power_w / 1000.0 << " kW total, "
            << pw.power_per_port_w << " W/port at 320 Gb/s ports\n";

  // The input buffers are sized by the deterministic FC RTT (SS IV.B).
  const double trunk_ns =
      util::fiber_delay_ns(sys.config().machine_diameter_m / 2.0);
  const int buffer = fabric::buffer_cells_for_rtt(
      2.0 * trunk_ns, sys.config().cell.cycle_ns());
  std::cout << "per-port input buffer for " << trunk_ns
            << " ns trunks: " << buffer << " cells\n";

  // ---- scaled-down cell-accurate simulation --------------------------------
  const int radix = static_cast<int>(cli.get_int("radix", 16));
  topo::TopoSimConfig cfg = topo::leaf_spine_config(radix);
  cfg.trunk_cable_slots = 5;  // ~ trunk_ns / cycle, scaled down
  cfg.buffer_cells = fabric::buffer_cells_for_rtt(
      2.0 * cfg.trunk_cable_slots, 1.0, 4);
  cfg.measure_slots = static_cast<std::uint64_t>(cli.get_int("slots", 15'000));
  const double load = cli.get_double("load", 0.8);

  std::cout << "\n=== scaled-down cell-accurate simulation ===\n"
            << "radix " << radix << " => " << cfg.hosts << " hosts, trunk "
            << cfg.trunk_cable_slots << " cycles, buffers " << cfg.buffer_cells
            << " cells, load " << load << "\n";
  const auto r = topo::run_topo_uniform(cfg, load, 2048);
  std::cout << "  throughput       " << r.throughput << " cells/slot/host\n"
            << "  mean delay       " << r.mean_delay_slots << " cycles ("
            << r.mean_delay_slots * sys.config().cell.cycle_ns() << " ns at "
            << "demonstrator cycle time)\n"
            << "  p99 delay        " << r.p99_delay_slots << " cycles\n"
            << "  max buffer use   leaf " << r.max_occupancy_per_stage[0]
            << " / spine " << r.max_occupancy_per_stage[1] << " of "
            << cfg.buffer_cells << " cells\n"
            << "  overflows        " << r.buffer_overflows
            << " (lossless => 0)\n"
            << "  out-of-order     " << r.out_of_order << " (must be 0)\n";
  return 0;
}
