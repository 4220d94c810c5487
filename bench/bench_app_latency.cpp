// §III — application-to-application latency. The paper's contemporary
// target is 1 µs app-to-app, decomposed into the driver stack and HCA at
// both ends, the switch fabric (< 500 ns including machine-room cabling)
// and cable time of flight. This harness posts message workloads through
// api::ServeSim's manual API onto the simulated demonstrator switch
// (segmentation, VOQ, FLPPR, per-operation completion) and prints the
// full budget, plus message-size sweeps and collective (all-to-all /
// ring) completion times.
//
//   bench_app_latency [--slots=N]    (default 20000)

#include <iostream>
#include <vector>

#include "src/api/serve_sim.hpp"
#include "src/host/hca.hpp"
#include "src/host/patterns.hpp"
#include "src/phy/guard_time.hpp"
#include "src/util/cli.hpp"
#include "src/util/log.hpp"
#include "src/util/table.hpp"

using namespace osmosis;

namespace {

// Messages posted in the first tenth of the run settle but stay out of
// the latency statistics (steady-state warmup).
api::ServeSimConfig demo_config(int hosts, std::uint64_t slots) {
  api::ServeSimConfig cfg;
  cfg.sw.ports = hosts;
  cfg.sw.sched.kind = sw::SchedulerKind::kFlppr;
  cfg.sw.sched.receivers = 2;
  cfg.sw.warmup_slots = slots / 10;
  cfg.sw.measure_slots = slots - slots / 10;
  return cfg;
}

// Sends every message the workload's hosts post this slot, then runs the
// slot. Returns false once the run's slots are spent.
bool step(api::ServeSim& sim, host::MessageWorkload& w,
          std::vector<host::Message>& scratch) {
  for (int h = 0; h < w.hosts(); ++h) {
    scratch.clear();
    w.poll(h, sim.current_slot(), scratch);
    for (const host::Message& m : scratch)
      sim.send_tagged(m.src, m.dst, 0, m.bytes, 0, 0, m.control);
  }
  return sim.advance_slot();
}

api::ServeSimResult run_all_slots(const api::ServeSimConfig& cfg,
                                  host::MessageWorkload& w) {
  api::ServeSim sim(cfg);
  std::vector<host::Message> scratch;
  while (step(sim, w, scratch)) {
  }
  return sim.finalize();
}

struct CollectiveResult {
  std::uint64_t posted = 0;
  std::uint64_t completion_slot = 0;  // slot of the last delivery
};

// Steps a collective until every message has settled; dies if the run's
// slots end first.
CollectiveResult run_collective(const api::ServeSimConfig& cfg,
                                host::MessageWorkload& w) {
  api::ServeSim sim(cfg);
  std::vector<host::Message> scratch;
  do {
    OSMOSIS_REQUIRE(step(sim, w, scratch),
                    "collective still in flight after "
                        << sim.current_slot() << " slots");
  } while (sim.ops_in_flight() > 0);
  CollectiveResult r;
  r.completion_slot = sim.current_slot() - 1;
  r.posted = sim.finalize().accepted;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto slots = static_cast<std::uint64_t>(cli.get_int("slots", 20'000));
  const phy::CellFormat cell = phy::demonstrator_cell_format();

  std::cout << "SS III reproduction: application-to-application latency "
               "(target ~1 us; < 500 ns in the fabric incl. cabling)\n\n";

  // Small control messages through a lightly loaded 64-port switch; every
  // message is a control message, so the mean is the control latency.
  host::RandomMessages light(64, 0.02, 1.0, 64.0, 64.0, sim::Rng(0xA11));
  const auto lr = run_all_slots(demo_config(64, slots), light);

  const auto budget = host::app_to_app_budget(
      host::HcaParams{}, lr.mean_latency * cell.cycle_ns(),
      2.0 * host::kCableOneWayNs);
  util::Table b({"budget element", "ns"}, 1);
  b.set_title("app-to-app budget, 64 B control message, light load");
  for (const auto& item : budget.items) b.add_row({item.name, item.ns});
  b.add_row({std::string("TOTAL"), budget.total_ns()});
  b.print(std::cout);
  std::cout << "fabric share (switch + cables): "
            << lr.mean_latency * cell.cycle_ns() + 2.0 * host::kCableOneWayNs
            << " ns (paper target: < 500 ns)\n";

  // Message-size sweep at moderate random load.
  std::cout << "\nMessage latency vs size (random traffic, ~50 % cell "
               "load, 64 hosts):\n\n";
  util::Table t({"message [B]", "cells", "mean latency [cycles]",
                 "p99 [cycles]", "mean app-to-app [ns]"},
                2);
  const host::HcaParams hca;
  const double fixed_ns = 2.0 * (hca.sw_stack_ns + hca.hca_pipeline_ns) +
                          2.0 * host::kCableOneWayNs;
  for (double bytes : {64.0, 256.0, 1024.0, 4096.0, 16384.0}) {
    const int cells = host::Segmenter(cell.user_bytes()).cells_for(bytes);
    // Keep the cell load near 50 % regardless of size.
    const double rate = 0.5 / cells;
    host::RandomMessages w(64, rate, 0.0, 64.0, bytes, sim::Rng(0xB22));
    const auto r = run_all_slots(demo_config(64, slots), w);
    t.add_row({bytes, static_cast<long long>(cells), r.mean_latency,
               r.p99_latency, r.mean_latency * cell.cycle_ns() + fixed_ns});
  }
  t.print(std::cout);

  // Collectives.
  std::cout << "\nCollective completion (64 hosts, cycles of 51.2 ns):\n\n";
  util::Table c({"collective", "message [B]", "posted msgs",
                 "completion [cycles]", "completion [us]"},
                2);
  for (double bytes : {256.0, 1024.0, 4096.0}) {
    host::AllToAll a2a(64, bytes);
    const auto ra = run_collective(demo_config(64, 200'000), a2a);
    c.add_row({std::string("all-to-all"), bytes,
               static_cast<long long>(ra.posted),
               static_cast<double>(ra.completion_slot),
               ra.completion_slot * cell.cycle_ns() / 1000.0});
    host::RingExchange ring(64, bytes);
    const auto rr = run_collective(demo_config(64, 20'000), ring);
    c.add_row({std::string("ring exchange"), bytes,
               static_cast<long long>(rr.posted),
               static_cast<double>(rr.completion_slot),
               rr.completion_slot * cell.cycle_ns() / 1000.0});
  }
  c.print(std::cout);
  std::cout << "(all-to-all floor = (N-1) x cells-per-message injection "
               "slots; ring is contention-free and finishes in ~cells + "
               "pipeline)\n";
  return 0;
}
