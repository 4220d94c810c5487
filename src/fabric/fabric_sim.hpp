#pragma once
// Cell-level reference simulation of the two-level fat tree (leaf-spine)
// built from input-buffered switches with independent central iSLIP
// schedulers per stage and the paper's input-only buffer placement
// (§IV.A option 3, §IV.B flow control).
//
// Flow control is credit-based with the credits managed at the granting
// scheduler, exactly the paper's scheme in effect: a scheduler "only
// issues transmission grants for links/buffers that are available and
// performs the necessary bookkeeping". Credits return to the upstream
// stage when a cell leaves the downstream input buffer, delayed by the
// cable flight time — giving the deterministic FC round trip the paper
// uses for buffer sizing. The invariant monitor checks losslessness, the
// full credit ledger, input-buffer caps and per-flow order every slot.
//
// Topology: `radix`-port switches; k = radix leaves each with k/2 host
// ports and k/2 uplinks; k/2 spines; N = k²/2 hosts (64-port switches
// give the paper's 2048-port fabric). Routing is d-mod-k (spine = dst
// mod k/2): static per destination, so per-flow order is preserved.
// Host cables take 1 slot, trunks 4, and every input buffer holds 16
// cells.
//
// topo::TopoSim runs the same machine (topo::leaf_spine_config) with
// faults, graceful degradation, telemetry and checkpoints. This engine
// is the lean, independent implementation it is held equal to.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/scheduler.hpp"
#include "src/topo/topology.hpp"

namespace osmosis::fabric {

struct FabricSimConfig {
  int radix = 8;  // switch port count (even)
  std::uint64_t warmup_slots = 2'000;
  std::uint64_t measure_slots = 30'000;
  // Extra slots (arrivals off) after the measurement window so the
  // invariant checker can confirm exactly-once delivery. 0 = no drain.
  std::uint64_t drain_max_slots = 0;
};

struct FabricSimResult {
  int hosts = 0;
  double throughput = 0.0;          // delivered / slot / host
  std::uint64_t delivered = 0;
  double mean_delay_slots = 0.0;    // injection -> delivery, cell cycles
  double p99_delay_slots = 0.0;
  std::uint64_t out_of_order = 0;     // must be 0
  std::uint64_t buffer_overflows = 0; // must be 0 (lossless)
  std::uint64_t offered = 0;
  bool exactly_once_in_order = false;
  std::uint64_t duplicates = 0;
  std::uint64_t missing = 0;
  std::uint64_t invariant_violations = 0;
};

class FabricSim {
 public:
  FabricSim(FabricSimConfig cfg, std::unique_ptr<sim::TrafficGen> traffic);

  FabricSimResult run();

  /// Advances one slot of the warmup / measurement / drain schedule;
  /// returns false when the run is complete.
  /// run() == { while (advance_slot()) {} finalize(); }.
  bool advance_slot();

  /// Assembles the result. Call exactly once, after advance_slot()
  /// returns false.
  FabricSimResult finalize();

  /// Runtime invariant verdict (chaos soak layer).
  const chaos::InvariantMonitor& monitor() const { return monitor_; }

 private:
  struct FabricCell {
    int src = -1;
    int dst = -1;
    std::uint64_t seq = 0;
    std::uint64_t inject_slot = 0;
  };
  struct Timed {
    std::uint64_t slot = 0;
    FabricCell cell;
  };
  struct SwitchNode {
    std::unique_ptr<sw::Scheduler> sched;
    // voq[input][output] FIFO; the input buffer is the bank of one input.
    std::vector<std::vector<std::deque<FabricCell>>> voq;
    std::vector<int> input_occupancy;
    std::vector<int> out_credits;          // -1 = host egress (no FC)
    std::vector<std::deque<Timed>> out_data;        // per output port
    std::vector<std::deque<std::uint64_t>> credit_in;  // per OUTPUT port
  };

  void step(std::uint64_t t, bool measuring, bool inject_traffic);
  void deliver(const FabricCell& cell, std::uint64_t t, bool measuring);
  std::uint64_t backlog() const;
  /// Feeds the slot-boundary invariant checks (conservation, credit
  /// ledger, occupancy caps, liveness watchdog).
  void check_invariants(std::uint64_t t);

  FabricSimConfig cfg_;
  int radix_;
  int m_;       // radix / 2: spine count = uplinks per leaf = hosts per leaf
  int hosts_;
  // Wiring, static routes, and host attach points (topo::make_fat_tree
  // with levels = 2); this class owns only the cell-moving machinery.
  topo::Topology topo_;
  std::unique_ptr<sim::TrafficGen> traffic_;
  std::vector<SwitchNode> switches_;  // leaves 0..k-1, spines k..k+m-1
  std::uint64_t now_ = 0;             // next slot advance_slot() will run

  // Host state.
  std::vector<std::deque<FabricCell>> host_queue_;
  std::vector<int> host_credits_;
  std::vector<std::deque<std::uint64_t>> host_credit_in_;
  std::vector<std::deque<Timed>> host_out_;  // host -> leaf cable

  // Statistics.
  sim::Histogram delay_hist_{256.0};
  sim::ThroughputMeter meter_;
  std::uint64_t overflows_ = 0;
  std::uint64_t offered_ = 0;

  chaos::InvariantMonitor monitor_;
};

/// Builds and runs a fabric under uniform Bernoulli host traffic.
FabricSimResult run_fabric_uniform(const FabricSimConfig& cfg, double load,
                                   std::uint64_t seed);

}  // namespace osmosis::fabric
