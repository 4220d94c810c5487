#pragma once
// Ideal output-queued switch — the work-conserving reference ([11],
// [16]): every arriving cell is placed directly into its output queue
// (conceptually an N-times speedup crossbar), and each output drains one
// cell per cycle. No output is ever idle while a cell for it exists
// anywhere in the switch, so this gives the delay/throughput floor that
// input-queued architectures are measured against. Traditional
// supercomputer interconnects (SP2-style) used output-queued electronic
// switches; the paper's point is that optics cannot buffer, forcing the
// input-queued + central-scheduler architecture.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/sim/flow_ledger.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/cell.hpp"

namespace osmosis::baseline {

struct OqResult {
  double offered_load = 0.0;
  double throughput = 0.0;
  double mean_delay = 0.0;
  double p99_delay = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t out_of_order = 0;  // always 0
  bool work_conserving_violated = false;  // checked every cycle
};

class OqSwitch {
 public:
  OqSwitch(int ports, std::unique_ptr<sim::TrafficGen> traffic);

  OqResult run(std::uint64_t warmup, std::uint64_t measure);

 private:
  int ports_;
  std::unique_ptr<sim::TrafficGen> traffic_;
  std::vector<std::deque<sw::Cell>> out_queue_;
  sim::FlowLedger ledger_;  // per (src, dst): sequences and order
};

/// Convenience for the bench sweep.
OqResult run_oq_uniform(int ports, double load, std::uint64_t seed,
                        std::uint64_t warmup = 2'000,
                        std::uint64_t measure = 30'000);

}  // namespace osmosis::baseline
