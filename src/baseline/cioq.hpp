#pragma once
// Combined input/output-queued (CIOQ) switch with crossbar speedup S and
// LIMITED output buffers — reference [11] (Minkenberg, "Work-
// conservingness of CIOQ packet switches with limited output buffers"),
// the result behind the paper's Table 1 requirement that "the switches
// must be work-conserving".
//
// The crossbar runs S matching phases per cell cycle, so up to S cells
// can reach an output queue per cycle while the line drains one. With
// S = 1 the switch is input-queued and idles outputs that have work
// parked behind other inputs (head-of-line style non-work-conservation);
// with S = 2 and enough output buffering it becomes work-conserving in
// practice. This model measures the violation rate directly: a cycle in
// which an output line idles while a cell for that output sits anywhere
// in the switch.

#include <cstdint>
#include <memory>

#include "src/sim/flow_ledger.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/switch_core.hpp"

namespace osmosis::baseline {

struct CioqConfig {
  int ports = 16;
  int speedup = 2;              // matching phases per cell cycle
  int output_buffer_cells = 8;  // per-output queue capacity ([11]'s limit)
  std::uint64_t warmup_slots = 1'000;
  std::uint64_t measure_slots = 20'000;
};

struct CioqResult {
  int ports = 0;
  int speedup = 0;
  double offered_load = 0.0;
  double throughput = 0.0;
  double mean_delay = 0.0;
  std::uint64_t delivered = 0;
  // Cycles where an output line idled although the switch held a cell
  // for it, over all output-cycles with work somewhere.
  double work_conservation_violation_rate = 0.0;
  int max_output_occupancy = 0;
  std::uint64_t out_of_order = 0;
};

class CioqSwitch {
 public:
  CioqSwitch(CioqConfig cfg, std::unique_ptr<sim::TrafficGen> traffic);

  CioqResult run();

 private:
  CioqConfig cfg_;
  std::unique_ptr<sim::TrafficGen> traffic_;
  sw::SwitchCore core_;  // iSLIP; the egress lines are the output buffers
  sim::FlowLedger ledger_;  // per (src, dst): sequences and order
};

CioqResult run_cioq_uniform(const CioqConfig& cfg, double load,
                            std::uint64_t seed);

}  // namespace osmosis::baseline
