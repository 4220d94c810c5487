// §VI.C — building a 2048-port fabric: 3 stages of 64-port OSMOSIS
// switches vs 5 stages of high-end 32-port electronic switches vs 9
// stages of 8-port commodity parts. Every stage adds latency, power and
// OEO conversions; OSMOSIS saves two OEO layers vs the high-end
// electronic fat tree.

#include <fstream>
#include <iostream>
#include <map>
#include <vector>

#include "src/phy/cascade.hpp"
#include "src/power/power_model.hpp"
#include "src/telemetry/run_report.hpp"
#include "src/topo/sizing.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/cli.hpp"
#include "src/util/log.hpp"
#include "src/util/table.hpp"

using namespace osmosis;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto ports = static_cast<std::uint64_t>(cli.get_int("ports", 2048));
  const double rate = cli.get_double("rate_gbps", 320.0);

  std::cout << "SS VI.C reproduction: " << ports
            << "-port fabric, per-port rate " << rate << " Gb/s\n"
            << "(paper: 3 OSMOSIS stages vs 5 high-end electronic vs 9 "
               "commodity)\n\n";

  util::Table t({"technology", "radix", "stages", "endpoints", "switches",
                 "cables", "OEO pairs/path", "power/port [W]", "$/Gb/s"},
                2);
  for (const auto& tech :
       {power::osmosis_profile(), power::highend_electronic_profile(),
        power::commodity_electronic_profile()}) {
    const auto r = power::fabric_power(tech, ports, rate, 256.0);
    t.add_row({r.technology, static_cast<long long>(tech.radix),
               static_cast<long long>(r.sizing.path_stages),
               static_cast<long long>(r.sizing.endpoint_ports),
               static_cast<long long>(r.sizing.switches_total),
               static_cast<long long>(r.sizing.host_cables +
                                      r.sizing.interswitch_cables),
               r.oeo_pairs_per_path, r.power_per_port_w, r.usd_per_gbps});
  }
  t.print(std::cout);

  const auto osmosis = topo::size_fat_tree(64, ports);
  const auto highend = topo::size_fat_tree(32, ports);
  std::cout << "\nOEO layers saved by OSMOSIS vs high-end electronic: "
            << highend.oeo_pairs_per_path - osmosis.oeo_pairs_per_path
            << " (paper: two layers)\n";

  std::cout << "\nWorst-case path latency (ASIC-class 102.4 ns per stage + "
               "245 ns total cabling):\n\n";
  util::Table l({"technology", "stages", "latency [ns]"}, 1);
  for (int radix : {64, 32, 8}) {
    const auto s = topo::size_fat_tree(radix, ports);
    l.add_row({std::string(radix == 64   ? "OSMOSIS 64p"
                           : radix == 32 ? "high-end electronic 32p"
                                         : "commodity 8p"),
               static_cast<long long>(s.path_stages),
               static_cast<double>(s.path_stages) * 102.4 + 245.0});
  }
  l.print(std::cout);

  // Cell-accurate cross-check at reduced scale: the same 128 hosts
  // built either as a 3-stage fat tree of radix-16 switches (the
  // OSMOSIS shape) or a 5-stage fat tree of radix-8 switches (the
  // commodity shape). The extra stages show up directly as traversal
  // hops and queueing delay, and that ordering is REQUIREd below. The
  // drain runs after the measurement window, so it moves no printed
  // value; it lets the exactly-once audit see every cell land.
  std::cout << "\nCell-level stage-count comparison (128 hosts, 60 % "
               "uniform load, trunk 4 cycles):\n\n";
  util::Table c({"fabric", "stages", "switches", "throughput",
                 "mean hops", "mean delay [cycles]", "overflows", "ooo"},
                3);
  std::vector<topo::TopoSimResult> rows;
  for (const auto& [name, levels] :
       {std::pair{"radix-16, 2-level (OSMOSIS shape)", 2},
        std::pair{"radix-8, 3-level (commodity shape)", 3}}) {
    topo::TopoSimConfig tc;
    tc.hosts = 128;
    tc.levels = levels;
    tc.trunk_cable_slots = 4;
    tc.buffer_cells = 16;
    tc.measure_slots =
        static_cast<std::uint64_t>(cli.get_int("slots", 10'000));
    tc.drain_max_slots = 50'000;
    const auto r = topo::run_topo_uniform(tc, 0.6, 0x61C);
    OSMOSIS_REQUIRE(r.exactly_once_in_order && r.buffer_overflows == 0 &&
                        r.out_of_order == 0 && r.invariant_violations == 0,
                    "cell-level run " << r.topology
                                      << " is not lossless in-order");
    c.add_row({std::string(name), static_cast<long long>(r.stages),
               static_cast<long long>(r.switches), r.throughput,
               r.mean_hops, r.mean_delay_slots,
               static_cast<long long>(r.buffer_overflows),
               static_cast<long long>(r.out_of_order)});
    rows.push_back(r);
  }
  c.print(std::cout);
  OSMOSIS_REQUIRE(rows[1].mean_hops > rows[0].mean_hops &&
                      rows[1].mean_delay_slots > rows[0].mean_delay_slots,
                  "stage-count ordering violated at cell level: 5-stage "
                      << rows[1].mean_hops << " hops / "
                      << rows[1].mean_delay_slots
                      << " slots vs 3-stage " << rows[0].mean_hops
                      << " hops / " << rows[0].mean_delay_slots << " slots");

  // The §VI.C argument as a simulated scenario matrix: one machine of
  // `matrix-hosts` endpoints built as every zoo topology, run under all
  // three flow-control kinds at matched offered load. At the default 32
  // hosts the generated path depths are exactly the paper's triple — a
  // 3-hop folded fat tree (the OSMOSIS shape), 5-column Omega/Banyan
  // MINs, and a 9-column Benes — so the throughput/latency ordering the
  // paper argues from (shallow beats deep at equal load) is REQUIREd,
  // not eyeballed.
  const int mhosts = cli.get_int("matrix-hosts", 32);
  const double mload = cli.get_double("matrix-load", 0.6);
  const auto mslots =
      static_cast<std::uint64_t>(cli.get_int("matrix-slots", 8'000));
  std::cout << "\nSimulated scenario matrix (" << mhosts << " hosts, "
            << mload * 100.0 << " % uniform load, topology x flow "
            << "control):\n\n";
  util::Table m({"topology", "flow control", "stages", "path hops",
                 "throughput", "mean delay", "p99 delay", "clean"},
                3);
  // Peak throughput per topology family under cell flow control, for
  // the stage-count ordering check below.
  std::map<topo::TopoKind, double> cell_thr;
  std::map<topo::TopoKind, double> cell_delay;
  for (const topo::TopoKind kind :
       {topo::TopoKind::kFatTree, topo::TopoKind::kClos,
        topo::TopoKind::kOmega, topo::TopoKind::kBanyan,
        topo::TopoKind::kBenes}) {
    for (const topo::FcKind fc :
         {topo::FcKind::kCredit, topo::FcKind::kRelayed,
          topo::FcKind::kWormholeVc}) {
      topo::TopoSimConfig tc;
      tc.topology = kind;
      tc.hosts = mhosts;
      tc.fc.kind = fc;
      tc.warmup_slots = 1'000;
      tc.measure_slots = mslots;
      tc.drain_max_slots = 50'000;
      const auto r = topo::run_topo_uniform(tc, mload, 0x61C);
      const bool clean = r.exactly_once_in_order &&
                         r.buffer_overflows == 0 && r.out_of_order == 0 &&
                         r.invariant_violations == 0;
      OSMOSIS_REQUIRE(clean, "matrix run " << r.topology << "/"
                                           << r.flow_control
                                           << " is not lossless in-order");
      m.add_row({r.topology, r.flow_control,
                 static_cast<long long>(r.stages),
                 static_cast<long long>(r.diameter), r.throughput,
                 r.mean_delay_slots, r.p99_delay_slots,
                 std::string(clean ? "yes" : "NO")});
      if (fc == topo::FcKind::kCredit) {
        cell_thr[kind] = r.throughput;
        cell_delay[kind] = r.mean_delay_slots;
      }
    }
  }
  m.print(std::cout);

  // The ordering the paper's scaling argument predicts: at matched
  // load, the 3-hop OSMOSIS shape sustains at least the throughput of
  // the deeper MINs (1% tolerance — at moderate load the shallow and
  // 5-stage fabrics both carry the full offered load) and strictly
  // lower mean latency.
  const double eps = 0.01;
  for (const topo::TopoKind deep :
       {topo::TopoKind::kOmega, topo::TopoKind::kBanyan,
        topo::TopoKind::kBenes}) {
    OSMOSIS_REQUIRE(
        cell_thr[topo::TopoKind::kFatTree] + eps >= cell_thr[deep],
        "stage-count ordering violated: 3-stage fat tree throughput "
            << cell_thr[topo::TopoKind::kFatTree] << " < "
            << to_string(deep) << " throughput " << cell_thr[deep]);
    OSMOSIS_REQUIRE(
        cell_delay[topo::TopoKind::kFatTree] < cell_delay[deep],
        "stage-count ordering violated: 3-stage fat tree mean delay "
            << cell_delay[topo::TopoKind::kFatTree]
            << " not below " << to_string(deep) << " delay "
            << cell_delay[deep]);
  }
  std::cout << "\nstage-count ordering holds: 3-stage fat tree >= 5/9-stage "
               "MIN throughput at matched load, with strictly lower mean "
               "delay\n";

  // Optional RunReport export (the "topology" section carries stage
  // count, diameter, VC occupancy and per-stage waits) — check.sh holds
  // it against schema_check --report --need-topology.
  const std::string report_path = cli.get_path("report", "");
  if (!report_path.empty()) {
    topo::TopoSimConfig tc;
    tc.topology = topo::TopoKind::kBenes;
    tc.hosts = mhosts;
    tc.fc.kind = topo::FcKind::kWormholeVc;
    tc.warmup_slots = 1'000;
    tc.measure_slots = mslots;
    tc.drain_max_slots = 50'000;
    topo::TopoSim sim(tc, sim::make_uniform(
                              tc.hosts, mload / tc.fc.flits_per_packet,
                              0x61C));
    while (sim.advance_slot()) {
    }
    sim.finalize();
    std::ofstream out(report_path);
    if (!(out << sim.report().to_json(2) << "\n")) {
      std::cerr << "error: cannot write report JSON to " << report_path
                << "\n";
      return 1;
    }
    std::cout << "RunReport written to " << report_path << "\n";
  }

  // Optical signal integrity across the cascade: every stage adds ASE.
  std::cout << "\nOSNR across the stage cascade (per-stage input -3 dBm, "
               "NF 8 dB; BER target 1e-12, 1 dB impairment allowance):\n\n";
  util::Table o({"stages", "final OSNR [dB]", "NRZ margin [dB]",
                 "DPSK margin [dB]"},
                2);
  const phy::CascadeStage stage;
  for (int stages : {3, 5, 9}) {
    const auto nrz =
        phy::analyze_cascade(stage, stages, 1e-12, phy::Modulation::kNrz);
    const auto dpsk =
        phy::analyze_cascade(stage, stages, 1e-12, phy::Modulation::kDpsk);
    o.add_row({static_cast<long long>(stages), nrz.final_osnr_db,
               nrz.margin_db, dpsk.margin_db});
  }
  o.print(std::cout);
  std::cout << "(all three cascade depths close optically — the paper's "
               "case against deep multistage optics is buffering and "
               "latency, not OSNR; DPSK adds 3 dB of margin throughout)\n";
  return 0;
}
