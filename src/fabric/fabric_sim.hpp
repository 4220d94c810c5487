#pragma once
// Cell-level simulation of a multistage (two-level fat tree / leaf-spine)
// fabric built from input-buffered switches with independent central
// schedulers per stage and the paper's input-only buffer placement
// (§IV.A option 3, §IV.B flow control).
//
// Flow control is credit-based with the credits managed at the granting
// scheduler, exactly the paper's scheme in effect: a scheduler "only
// issues transmission grants for links/buffers that are available and
// performs the necessary bookkeeping". Credits return to the upstream
// stage when a cell leaves the downstream input buffer, delayed by the
// cable flight time — giving the deterministic FC round trip the paper
// uses for buffer sizing. The simulator asserts losslessness (no input
// buffer ever exceeds its capacity) and in-order delivery per flow.
//
// Topology: `radix`-port switches; k = radix leaves each with k/2 host
// ports and k/2 uplinks; k/2 spines; N = k²/2 hosts (64-port switches
// give the paper's 2048-port fabric; tests run scaled-down radices).
// Routing is d-mod-k (spine = dst mod k/2): static per destination, so
// per-flow order is preserved.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/ckpt/ckpt.hpp"
#include "src/fabric/route_table.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/faults/invariant.hpp"
#include "src/host/admission.hpp"
#include "src/mgmt/health.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/scheduler.hpp"
#include "src/telemetry/availability.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/topo/topology.hpp"

namespace osmosis::fabric {

struct FabricSimConfig {
  int radix = 8;                   // switch port count (even)
  int host_cable_slots = 1;        // host <-> leaf flight time, cell cycles
  int trunk_cable_slots = 4;       // leaf <-> spine flight time
  int buffer_cells = 16;           // input-buffer capacity per switch port
  // Stage scheduler. Must be an immediate-issue kind (kIslip, kPim,
  // kTdm): grants must be issued in the same cycle they are matched so
  // the credit check at matching time still holds at issue time.
  sw::SchedulerKind scheduler = sw::SchedulerKind::kIslip;
  int scheduler_iterations = 0;    // 0 = log2(radix)
  std::uint64_t warmup_slots = 2'000;
  std::uint64_t measure_slots = 30'000;
  // Cell-lifecycle tracing / RunReport export (timestamps in cell
  // cycles). The multi-hop stage mapping: request = arrival at the leaf
  // ingress buffer, grant = first-stage grant, transmit = the grant
  // that launches the final hop. Off by default.
  telemetry::TelemetryConfig telemetry;
  // Mid-run fault schedule (src/faults/). The fabric accepts
  // kPlaneFailure (a = spine index; must be transient — d-mod-k routing
  // has no alternate path, so a permanent spine loss would strand
  // cells) and kAdapterStall (a = host index). While a spine is down
  // its scheduler freezes and every leaf masks the uplink toward it;
  // credit flow control backpressures the sources losslessly.
  faults::FaultPlan fault_plan;
  // Extra slots (arrivals off) after the measurement window so the
  // invariant checker can confirm exactly-once delivery. 0 = no drain.
  std::uint64_t drain_max_slots = 0;
  // Runtime invariant verification (chaos soak layer): cell conservation,
  // the full credit-conservation ledger, input-buffer occupancy caps, and
  // the liveness watchdog. Pure accounting, always on.
  chaos::MonitorConfig monitor;

  // ---- graceful degradation (DESIGN.md §13) ----------------------------
  // Fault-aware adaptive routing: spine failures (including permanent
  // ones) take the spine out of service instead of freezing it — flows
  // homed there re-spread deterministically over the survivors, the dead
  // spine drains its resident cells, and an egress resequencer absorbs
  // the reshuffle. Revival is damped by a hold-down so routes don't flap.
  // Off by default: the legacy freeze-and-backpressure behavior (and its
  // transient-only fault plan check) is byte-identical.
  bool adaptive_routing = false;
  // Hold-down after a spine revival before flows re-home onto it.
  std::uint64_t reroute_hysteresis_slots = 256;
  // Degraded-mode admission control at the hosts: when the health
  // registry reports spines out of service, per-source token buckets
  // shed excess arrivals fairly so backlog stays bounded. Off by default.
  host::AdmissionConfig admission;
  // Availability/SLO accounting (RunReport "availability" section).
  // Forced on whenever adaptive routing or admission control is enabled.
  telemetry::AvailabilityConfig availability;
};

struct FabricSimResult {
  int radix = 0;
  int hosts = 0;
  double offered_load = 0.0;
  double throughput = 0.0;          // delivered / slot / host
  std::uint64_t delivered = 0;
  double mean_delay_slots = 0.0;    // injection -> delivery, cell cycles
  double p99_delay_slots = 0.0;
  double max_delay_slots = 0.0;
  int max_leaf_input_occupancy = 0;   // must stay <= buffer_cells
  int max_spine_input_occupancy = 0;  // must stay <= buffer_cells
  std::uint64_t max_host_backlog = 0; // source queue (backpressure depth)
  std::uint64_t out_of_order = 0;     // must be 0
  std::uint64_t buffer_overflows = 0; // must be 0 (lossless)
  // Degraded-operation accounting (fault injection / recovery).
  std::uint64_t offered = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_repaired = 0;
  std::uint64_t faults_recovered = 0;
  double mean_recovery_slots = 0.0;
  double max_recovery_slots = 0.0;
  std::uint64_t drained_slots = 0;
  bool exactly_once_in_order = false;
  std::uint64_t duplicates = 0;
  std::uint64_t missing = 0;
  std::uint64_t invariant_violations = 0;
  std::string first_violation;  // "" when clean
  // Graceful-degradation accounting (adaptive routing / admission).
  std::uint64_t generated = 0;      // offered + shed
  std::uint64_t shed_cells = 0;     // refused at the source by admission
  std::uint64_t resteered = 0;      // VOQ cells moved off a dead uplink
  std::uint64_t reroute_ooo = 0;    // pre-resequencer reorder (absorbed)
  std::uint64_t max_resequencer_depth = 0;
  std::uint64_t brownout_slots = 0; // measured slots with a spine out
};

class FabricSim {
 public:
  FabricSim(FabricSimConfig cfg, std::unique_ptr<sim::TrafficGen> traffic);

  FabricSimResult run();

  /// Incremental stepping for checkpoint/restore: advances one slot of
  /// the warmup / measurement / drain schedule; returns false when the
  /// run is complete. run() == { while (advance_slot()) {} finalize(); }.
  bool advance_slot();

  /// Assembles the result and writes the end-of-run telemetry counters.
  /// Call exactly once, after advance_slot() returns false.
  FabricSimResult finalize();

  std::uint64_t current_slot() const { return now_; }

  /// Snapshots every mutable field (schedulers, VOQs, cables, credits,
  /// stats, fault cursor) into "fabric.*" chunks. The loader must be a
  /// FabricSim built from the identical config; structural mismatches
  /// throw ckpt::Error.
  void save_state(ckpt::Writer& w) const;
  void load_state(const ckpt::Reader& r);

  int hosts() const { return hosts_; }

  telemetry::Telemetry& telemetry() { return telem_; }
  const telemetry::Telemetry& telemetry() const { return telem_; }

  /// Component health view with the injector-driven transitions.
  const mgmt::HealthRegistry& health() const { return health_; }

  /// Runtime invariant verdict (chaos soak layer).
  const chaos::InvariantMonitor& monitor() const { return monitor_; }

  /// Structured run export; stage histograms are in cell cycles and the
  /// counters carry the per-switch (leaf.<id>.* / spine.<id>.*) grant
  /// counts plus their rollup.* subtotals.
  telemetry::RunReport report() const;

  /// Raw end-to-end delay histogram (cell cycles), for exact cross-run
  /// aggregation via sim::Histogram::merge.
  const sim::Histogram& delay_histogram() const { return delay_hist_; }

 private:
  struct FabricCell {
    int src = -1;
    int dst = -1;
    std::uint64_t seq = 0;
    std::uint64_t inject_slot = 0;
    std::int32_t trace = -1;  // telemetry::CellTrace handle

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, src);
      ckpt::field(a, dst);
      ckpt::field(a, seq);
      ckpt::field(a, inject_slot);
      ckpt::field(a, trace);
    }
  };
  struct Timed {
    std::uint64_t slot = 0;
    FabricCell cell;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, slot);
      ckpt::field(a, cell);
    }
  };
  struct SwitchNode {
    std::unique_ptr<sw::Scheduler> sched;
    // voq[input][output] FIFO; the input buffer is the bank of one input.
    std::vector<std::vector<std::deque<FabricCell>>> voq;
    std::vector<int> input_occupancy;
    std::vector<int> out_credits;          // -1 = host egress (no FC)
    std::vector<std::deque<Timed>> out_data;        // per output port
    std::vector<std::deque<std::uint64_t>> credit_in;  // per OUTPUT port
    int max_input_occ = 0;
  };

  // Routing: output port of switch `sw_id` toward host `dst`, read from
  // the topology's static d-mod-k table. Adaptive mode overrides the
  // uplink choice with the fault-aware route table.
  int route(int sw_id, int dst) const;
  bool is_leaf(int sw_id) const { return sw_id < radix_; }

  // ---- graceful degradation helpers (adaptive mode only) --------------
  /// Egress delivery through the resequencer: in-order cells pass
  /// straight through (and unlock parked successors), early cells park.
  void deliver_or_park(const FabricCell& cell, std::uint64_t t,
                       bool measuring);
  void deliver_now(const FabricCell& cell, std::uint64_t t, bool measuring);
  /// Moves every leaf VOQ cell queued toward an out-of-service uplink to
  /// its re-routed survivor (deterministic order: spines, leaves, inputs
  /// ascending, FIFO within a queue), cancelling the stale scheduler
  /// request per moved cell. Cells with no survivor stay parked in place.
  void resteer_dead_uplinks();
  /// Spines currently able to carry new cells.
  int live_spines() const;
  /// Pushes the health registry's spine capacity view into admission.
  void update_admission_capacity();

  void step(std::uint64_t t, bool measuring, bool inject_traffic);
  /// Records one time-series row (DESIGN.md §11) after slot `t` when the
  /// sampler is enabled and due. Purely slot-driven, so the recorded
  /// series is identical at any thread count and across checkpoints.
  void sample_series(std::uint64_t t);
  template <class Ar>
  void io_core(Ar& a);
  template <class Ar>
  void io_stats(Ar& a);
  void apply_fault_transitions(std::uint64_t t);
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
  std::uint64_t max_host_backlog_ = 0;
  std::uint64_t overflows_ = 0;

  // Telemetry.
  telemetry::Telemetry telem_;
  std::vector<std::uint64_t> grants_per_switch_;
  std::uint64_t fc_blocked_output_cycles_ = 0;
  std::uint64_t fc_host_hold_cycles_ = 0;
  // Time-series rate cursors (checkpointed with the core).
  std::uint64_t total_delivered_ = 0;
  std::uint64_t last_sample_slot_ = 0;
  std::uint64_t last_sample_delivered_ = 0;
  std::uint64_t last_sample_grants_ = 0;

  // Runtime fault injection & recovery.
  std::optional<faults::FaultInjector> injector_;
  mgmt::HealthRegistry health_;
  chaos::InvariantMonitor monitor_;
  faults::RecoveryTracker recovery_;
  std::vector<std::uint8_t> spine_down_;    // per spine
  std::vector<std::uint8_t> host_stalled_;  // per host adapter
  std::uint64_t offered_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t faults_repaired_ = 0;
  std::uint64_t drained_slots_ = 0;

  // Graceful degradation (DESIGN.md §13). The resequencer mirrors
  // MultiPlaneSim's failover scheme: parked_[dst] holds early cells
  // keyed (src, seq); expected_[dst][src] is the next in-order sequence
  // per flow. Both are allocated only in adaptive mode.
  bool adaptive_ = false;
  SpineRouteTable routes_;
  host::AdmissionControl admission_;
  telemetry::AvailabilityTracker avail_;
  std::vector<std::map<std::pair<int, std::uint64_t>, FabricCell>> parked_;
  std::vector<std::vector<std::uint64_t>> expected_;
  std::uint64_t generated_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t resteered_ = 0;
  std::uint64_t reroute_ooo_ = 0;
  std::uint64_t max_park_depth_ = 0;
};

/// Builds and runs a fabric under uniform Bernoulli host traffic.
FabricSimResult run_fabric_uniform(const FabricSimConfig& cfg, double load,
                                   std::uint64_t seed);

}  // namespace osmosis::fabric
