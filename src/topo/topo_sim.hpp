#pragma once
// Slot-synchronous topology x flow-control simulator — the execution
// engine behind the simulated §VI.C scenario matrix. One machine runs
// any zoo Topology (fat tree, Clos(m,n,r), Omega/Banyan/Benes) under
// any FcKind:
//
//  * kCredit / kRelayed move whole cells through per-switch VOQs with
//    an independent central scheduler per switch (the fabric
//    simulators' machinery, re-used over the Topology peer tables);
//    they differ only in when a freed buffer's credit reaches the
//    upstream stage (cable flight vs immediately, §IV.B).
//  * kWormholeVc moves packets as flit worms through multi-lane VC
//    buffers with per-output round-robin flit arbitration; a packet's
//    lane on every link is dst mod lanes, so per-flow order is
//    preserved by construction and the acyclic (feed-forward or
//    up/down) routes stay deadlock-free.
//
// The simulator carries the full chaos-soak contract: per-slot cell-
// conservation and credit/flit-ledger invariants (chaos::InvariantMonitor),
// transient mid-run switch faults with freeze-and-backpressure semantics
// plus recovery timing and a health registry, kill-safe checkpoint/resume
// ("topo.*" chunks), and a RunReport with the "topology" section (stage
// count, diameter, VC occupancy, per-stage latency).
//
// On the two-level fat tree with a cell flow-control kind — the paper's
// leaf-spine fabric (leaf_spine_config) — it also degrades gracefully
// (DESIGN.md §13): fault-aware adaptive routing over the spines with an
// egress resequencer, degraded-mode admission at the hosts, and the
// availability report. The cell kinds also trace cell lifecycles, sample
// time series and count per-switch grants (TelemetryConfig).

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/ckpt/ckpt.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/faults/invariant.hpp"
#include "src/host/admission.hpp"
#include "src/mgmt/health.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/portset.hpp"
#include "src/sw/scheduler.hpp"
#include "src/telemetry/availability.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/topo/flow_control.hpp"
#include "src/topo/route_table.hpp"
#include "src/topo/topology.hpp"

namespace osmosis::topo {

/// Flight time of a host <-> leaf cable, in slots.
inline constexpr int kHostCableSlots = 1;

struct TopoSimConfig {
  TopoKind topology = TopoKind::kFatTree;
  int hosts = 16;
  // Fat trees only: L switch levels (1..4), so hosts must equal
  // radix*(radix/2)^(L-1) and a worst-case path crosses 2L-1 stages.
  // L = 2 is the paper's 3-stage OSMOSIS fabric, L = 3 the 5-stage
  // high-end electronic one. Every other kind rejects L != 2.
  int levels = 2;
  RouteKind routing = RouteKind::kDestMod;
  // Construction-time permanent faults, routed around where the
  // topology has path diversity (fat-tree non-leaf switches, Clos
  // middles); rejected by the unique-path MINs.
  std::vector<int> failed_switches;
  FcParams fc;
  int buffer_cells = 16;  // input-buffer capacity per port (cell kinds)
  int trunk_cable_slots = 4;  // host cables take kHostCableSlots
  // Cell kinds only: per-switch central scheduler. Must be an
  // immediate-issue kind (kIslip, kPim, kTdm, kWfa).
  sw::SchedulerKind scheduler = sw::SchedulerKind::kIslip;
  int scheduler_iterations = 0;
  std::uint64_t warmup_slots = 2'000;
  std::uint64_t measure_slots = 20'000;
  // Extra arrival-free slots after the measurement window so the
  // exactly-once audit can see every cell land. 0 = no drain.
  std::uint64_t drain_max_slots = 0;
  // Mid-run faults. Accepted kinds: kPlaneFailure (a = index into the
  // fault stage's switch list — top level for folded trees, the middle
  // column otherwise; must be transient unless adaptive routing carries
  // it: the switch freezes and credit FC backpressures losslessly until
  // repair) and kAdapterStall (a = host index; the host buffers arrivals
  // but injects nothing). Any plan also feeds recovery timing and the
  // health registry ("spine/<a>", "host/<a>").
  faults::FaultPlan fault_plan;
  chaos::MonitorConfig monitor;

  // ---- graceful degradation (DESIGN.md §13) ---------------------------
  // Two-level fat tree with a cell FC kind only; everything else rejects
  // both at construction. Either one turns on the availability report.
  //
  // Fault-aware adaptive routing: a spine failure (permanent ones
  // included) takes the spine out of service instead of freezing it.
  // Flows homed there re-spread over the survivors, VOQ cells queued
  // toward it re-steer, the dead spine drains what it holds, and an
  // egress resequencer absorbs the reshuffle. A revived spine re-homes
  // its flows only after a 256-slot hold-down.
  bool adaptive_routing = false;
  // Degraded-mode admission: while spines are out of service, per-host
  // token buckets shed arrivals at the source so backlog stays bounded.
  bool admission = false;
  // Cell kinds only: cell-lifecycle tracing (stage-latency legs in cell
  // cycles; request = arrival at the first switch, grant = its grant,
  // transmit = the grant that launches the final hop), time series and
  // per-switch grant counters in the RunReport.
  telemetry::TelemetryConfig telemetry;
};

/// The paper's leaf-spine fabric: a two-level fat tree of `radix`-port
/// switches — radix leaves with radix/2 hosts each, radix/2 spines,
/// radix²/2 hosts, d-mod-k routes.
TopoSimConfig leaf_spine_config(int radix);

struct TopoSimResult {
  std::string topology;      // Topology::name
  std::string flow_control;  // FcKind name
  int hosts = 0;
  int switches = 0;
  int stages = 0;
  int diameter = 0;
  double offered_load = 0.0;  // fraction of line rate (flit-normalized)
  double throughput = 0.0;    // delivered fraction of line rate
  std::uint64_t delivered = 0;  // packets in the measurement window
  double mean_delay_slots = 0.0;
  double p99_delay_slots = 0.0;
  double mean_hops = 0.0;
  // Per 1-based stage (levels for folded trees, columns otherwise):
  // peak buffer occupancy (cells, or flits in one VC lane) and mean
  // queueing wait of cells/flits forwarded by that stage.
  std::vector<int> max_occupancy_per_stage;
  std::vector<double> mean_stage_wait_slots;
  std::uint64_t buffer_overflows = 0;  // must be 0 (lossless)
  std::uint64_t out_of_order = 0;      // must be 0
  std::uint64_t injected_total = 0;    // packets, warmup included
  std::uint64_t delivered_total = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_repaired = 0;
  std::uint64_t faults_recovered = 0;  // backlog back at its baseline
  double mean_recovery_slots = 0.0;
  std::uint64_t drained_slots = 0;
  bool exactly_once_in_order = false;
  std::uint64_t invariant_violations = 0;
  std::string first_violation;  // "" when clean
  // Graceful degradation (adaptive routing / admission).
  std::uint64_t shed_cells = 0;     // refused at the source by admission
  std::uint64_t resteered = 0;      // VOQ cells moved off a dead uplink
  std::uint64_t reroute_ooo = 0;    // reorders the resequencer absorbed
  std::uint64_t max_resequencer_depth = 0;
  std::uint64_t brownout_slots = 0; // measured slots with a spine out
};

class TopoSim {
 public:
  TopoSim(TopoSimConfig cfg, std::unique_ptr<sim::TrafficGen> traffic);

  TopoSimResult run();

  /// Incremental stepping for checkpoint/restore: advances one slot of
  /// the warmup / measurement / drain schedule; returns false when the
  /// run is complete. run() == { while (advance_slot()) {} finalize(); }.
  bool advance_slot();

  /// Assembles the result; call exactly once after advance_slot()
  /// returns false.
  TopoSimResult finalize();

  std::uint64_t current_slot() const { return now_; }
  int hosts() const { return topo_.hosts; }
  const Topology& topology() const { return topo_; }
  const chaos::InvariantMonitor& monitor() const { return monitor_; }
  const sim::Histogram& delay_histogram() const { return delay_hist_; }
  const telemetry::Telemetry& telemetry() const { return telem_; }

  /// Structured run export with the "topology" section (stage count,
  /// diameter, VC occupancy, per-stage latency), plus the stage-latency
  /// legs, time series and per-switch counters under telemetry, the
  /// health log under a fault plan and the "availability" section under
  /// graceful degradation.
  telemetry::RunReport report() const;

  /// Snapshots every mutable field into "topo.*" chunks: core,
  /// switches, traffic and stats always; faults, degraded and telemetry
  /// only for runs that have that state. The loader must be a TopoSim
  /// built from the identical config; structural mismatches throw
  /// ckpt::Error.
  void save_state(ckpt::Writer& w) const;
  void load_state(const ckpt::Reader& r);

 private:
  // One cell (cell kinds) or one flit of a packet (wormhole).
  struct Flit {
    int src = -1;
    int dst = -1;
    std::uint64_t seq = 0;         // per-flow packet sequence
    std::uint64_t inject_slot = 0;
    std::uint64_t enter_slot = 0;  // arrival at the current buffer
    int hops = 0;
    std::uint8_t head = 1;
    std::uint8_t tail = 1;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, src);
      ckpt::field(a, dst);
      ckpt::field(a, seq);
      ckpt::field(a, inject_slot);
      ckpt::field(a, enter_slot);
      ckpt::field(a, hops);
      ckpt::field(a, head);
      ckpt::field(a, tail);
    }
  };
  struct Timed {
    std::uint64_t slot = 0;
    Flit flit;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, slot);
      ckpt::field(a, flit);
    }
  };
  struct Node {
    // Cell kinds: per-switch central scheduler over VOQs.
    std::unique_ptr<sw::Scheduler> sched;  // null in wormhole mode
    std::vector<std::vector<std::deque<Flit>>> voq;  // [in][out]
    std::vector<int> input_occupancy;
    std::vector<int> out_credits;  // per out port; -1 = host egress
    std::vector<std::deque<std::uint64_t>> credit_in;  // per out port
    // Wormhole: VC lane buffers and per-lane credit bookkeeping.
    std::vector<std::deque<Flit>> lane_buf;  // [in * lanes + lane]
    std::vector<int> lane_out;      // bound out port per input lane; -1
    std::vector<int> lane_credits;  // [out * lanes + lane]; flit slots
    std::vector<int> lane_owner;    // [out * lanes + lane]; input lane
    // Per out port: (arrival slot, lane) credit returns in flight.
    std::vector<std::deque<std::pair<std::uint64_t, int>>> lane_credit_in;
    std::vector<int> out_rr;  // per out port: round-robin cursor
    // Shared: launched flits in cable flight, per out port.
    std::vector<std::deque<Timed>> out_data;
    int max_occ = 0;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, voq);
      ckpt::field(a, input_occupancy);
      ckpt::field(a, out_credits);
      ckpt::field(a, credit_in);
      ckpt::field(a, lane_buf);
      ckpt::field(a, lane_out);
      ckpt::field(a, lane_credits);
      ckpt::field(a, lane_owner);
      ckpt::field(a, lane_credit_in);
      ckpt::field(a, out_rr);
      ckpt::field(a, out_data);
      ckpt::field(a, max_occ);
      if (sched) {
        if constexpr (Ar::kLoading)
          sched->load_state(a);
        else
          sched->save_state(a);
      }
    }
  };

  bool wormhole() const { return cfg_.fc.kind == FcKind::kWormholeVc; }
  int lane_of(int dst) const { return dst % cfg_.fc.lanes; }
  bool degraded_mode() const {
    return cfg_.adaptive_routing || cfg_.admission;
  }
  bool traced() const {
    return cfg_.telemetry.enabled || cfg_.telemetry.timeseries.enabled;
  }
  std::uint64_t flow_of(const Flit& f) const {
    return static_cast<std::uint64_t>(f.src) *
               static_cast<std::uint64_t>(topo_.hosts) +
           static_cast<std::uint64_t>(f.dst);
  }
  /// The cell's CellTrace handle, -1 when it is not sampled.
  std::int32_t trace_of(const Flit& f) const;
  void step(std::uint64_t t, bool measuring, bool inject);
  void accept_flit(int sw, int in_port, Flit f, std::uint64_t t);
  void deliver(const Flit& f, std::uint64_t t, bool measuring);
  /// Egress resequencer (adaptive routing): an in-order cell delivers and
  /// releases its parked successors; an early one parks.
  void deliver_or_park(const Flit& f, std::uint64_t t, bool measuring);
  /// Moves every leaf VOQ cell queued toward an out-of-service uplink to
  /// its re-routed survivor (spines, leaves, inputs ascending, FIFO order
  /// within a queue). Cells with no survivor stay where they are.
  void resteer_dead_uplinks();
  /// Leaf output port toward the spine that adaptive routing picks.
  int adaptive_uplink(int dst) const { return m_ + routes_.route(dst); }
  /// Spines not failed; a revived spine in its hold-down counts.
  int spines_up() const;
  /// Spines carrying new cells: under adaptive routing a revived spine
  /// waits out its hold-down first.
  int live_spines() const {
    return cfg_.adaptive_routing ? routes_.usable_count() : spines_up();
  }
  void transfer_cells(Node& node, int sw, std::uint64_t t, bool measuring);
  void transfer_flits(Node& node, int sw, std::uint64_t t, bool measuring);
  void credit_upstream(const Peer& up, int lane, std::uint64_t t);
  void apply_fault_transitions(std::uint64_t t);
  void check_invariants(std::uint64_t t);
  /// One time-series row after slot `t` when the sampler is due.
  void sample_series(std::uint64_t t);
  std::uint64_t backlog() const {
    return injected_total_ - delivered_total_;
  }
  template <class Ar>
  void io_core(Ar& a);
  template <class Ar>
  void io_stats(Ar& a);
  template <class Ar>
  void io_faults(Ar& a);
  template <class Ar>
  void io_degraded(Ar& a);
  template <class Ar>
  void io_telemetry(Ar& a);
  /// Every chunk, in order: saves to a Writer, loads from a Reader.
  template <class Io>
  void io_chunks(Io& io);

  TopoSimConfig cfg_;
  Topology topo_;
  std::unique_ptr<sim::TrafficGen> traffic_;
  std::vector<Node> nodes_;
  std::uint64_t now_ = 0;
  std::uint64_t drained_slots_ = 0;

  // Host state. Cell kinds use scalar credits; wormhole uses per-lane
  // flit credits and streams the front packet one flit per slot.
  std::vector<std::deque<Flit>> host_queue_;
  std::vector<int> host_credits_;
  std::vector<int> host_lane_credits_;  // [host * lanes + lane]
  std::vector<std::deque<std::uint64_t>> host_credit_in_;
  std::vector<std::deque<std::pair<std::uint64_t, int>>> host_lane_credit_in_;
  std::vector<std::deque<Timed>> host_out_;

  // Mid-run fault timeline (expanded from cfg_.fault_plan; sorted).
  struct Transition {
    std::uint64_t slot = 0;
    std::uint8_t begin = 1;
    int event = -1;  // index into cfg_.fault_plan.events()
  };
  std::vector<Transition> transitions_;
  std::size_t next_transition_ = 0;
  std::vector<int> fault_targets_;          // the fault stage's switches
  std::vector<std::uint8_t> down_;          // per switch (mid-run freeze)
  std::vector<std::uint8_t> host_stalled_;  // per host adapter
  int open_faults_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t faults_repaired_ = 0;

  // Statistics.
  sim::Histogram delay_hist_{512.0};
  sim::MeanVar hops_;
  sim::ThroughputMeter meter_;
  std::vector<sim::MeanVar> stage_wait_;  // per 1-based stage, index 0 unused
  std::uint64_t overflows_ = 0;
  std::uint64_t injected_total_ = 0;   // packets
  std::uint64_t delivered_total_ = 0;  // packets
  std::vector<std::uint64_t> grants_per_stage_;

  chaos::InvariantMonitor monitor_;
  int top_stage_ = 1;             // fault-stage index (see fault_plan doc)
  std::uint64_t pool_total_ = 0;  // credit/flit ledger target

  // Fault bookkeeping, "topo.faults" (runs with a fault plan).
  faults::RecoveryTracker recovery_;
  mgmt::HealthRegistry health_;

  // Fault-stage switches: the spines of the leaf-spine tree.
  int m_ = 0;

  // Graceful degradation, "topo.degraded" (leaf-spine tree only). Leaf
  // port m_ + s is the uplink toward spine s (make_fat_tree's wiring).
  // The resequencer keeps reseq_next_[dst * hosts + src], the next
  // in-order sequence of each flow, and parked_[dst], the early cells
  // sorted by (src, seq).
  SpineRouteTable routes_;
  host::AdmissionControl admission_;
  telemetry::AvailabilityTracker avail_;
  std::vector<std::uint64_t> reseq_next_;
  std::vector<std::vector<Flit>> parked_;
  std::uint64_t shed_ = 0;
  std::uint64_t resteered_ = 0;
  std::uint64_t reroute_ooo_ = 0;
  std::uint64_t max_park_depth_ = 0;

  // Telemetry, "topo.telemetry" (cell kinds with telemetry on). The
  // CellTrace handles of sampled cells live beside the queues, keyed by
  // flow << 32 | seq, so a Flit carries none.
  telemetry::Telemetry telem_;
  std::unordered_map<std::uint64_t, std::int32_t> trace_;
  std::vector<std::uint64_t> grants_per_switch_;
  std::uint64_t fc_blocked_output_cycles_ = 0;
  std::uint64_t fc_host_hold_cycles_ = 0;
  std::uint64_t last_sample_slot_ = 0;
  std::uint64_t last_sample_delivered_ = 0;
  std::uint64_t last_sample_grants_ = 0;

  // Per-slot scratch (reset every step; never checkpointed).
  std::vector<std::uint8_t> used_input_;
  // Wormhole, per out port of the switch being arbitrated: the input
  // lanes whose front flit wants that port (rebuilt per switch per slot).
  std::vector<sw::PortSet> lane_want_;
  int cur_slot_max_occ_ = 0;
};

/// Builds and runs a topology under uniform Bernoulli host traffic.
/// `load` is the offered fraction of line rate; for wormhole kinds the
/// per-slot packet probability is load / flits_per_packet so the flit
/// load (and thus the throughput scale) matches the cell kinds.
TopoSimResult run_topo_uniform(const TopoSimConfig& cfg, double load,
                               std::uint64_t seed);

}  // namespace osmosis::topo
