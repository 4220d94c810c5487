#pragma once
// Load-balanced Birkhoff-von-Neumann switch ([24], discussed in §VI.D):
// two stages of demand-oblivious TDM crossbars around a middle stage of
// VOQ buffers. Stage 1 spreads arrivals round-robin over the middle
// ports, shaping any admissible traffic to uniform; stage 2's rotating
// pattern then drains the middle VOQs at full rate. Scales beautifully
// (no scheduler at all) — but an unloaded N-port switch still makes a
// cell wait on average N/2 cycles for the rotation to come around, and
// cells of one flow ride different middle ports with different waits, so
// delivery is out of order. Both properties disqualify it for HPC
// fabrics, which is the paper's argument; this model measures them.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/sim/flow_ledger.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/cell.hpp"

namespace osmosis::baseline {

struct BvnResult {
  int ports = 0;
  double offered_load = 0.0;
  double throughput = 0.0;
  double mean_delay = 0.0;   // cycles; ~N/2 + transfer even when unloaded
  double p99_delay = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t out_of_order = 0;   // substantial by design
  double reorder_fraction = 0.0;
};

class BvnSwitch {
 public:
  BvnSwitch(int ports, std::unique_ptr<sim::TrafficGen> traffic);

  BvnResult run(std::uint64_t warmup, std::uint64_t measure);

 private:
  int ports_;
  std::unique_ptr<sim::TrafficGen> traffic_;
  // middle_voq_[m][out]: cells parked at middle port m for output `out`.
  std::vector<std::vector<std::deque<sw::Cell>>> middle_voq_;
  sim::FlowLedger ledger_;  // per (src, dst): sequences and order
};

BvnResult run_bvn_uniform(int ports, double load, std::uint64_t seed,
                          std::uint64_t warmup = 2'000,
                          std::uint64_t measure = 30'000);

}  // namespace osmosis::baseline
