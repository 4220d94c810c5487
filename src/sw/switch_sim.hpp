#pragma once
// Slot-accurate simulator of one OSMOSIS single-stage switch (§V): VOQ
// ingress adapters, a central scheduler (FLPPR / pipelined iSLIP / ...),
// the bufferless crossbar, and egress adapters with one or two receivers
// feeding an egress queue that drains one cell per slot (line rate).
// Time advances in cell cycles (51.2 ns each for the demonstrator
// format). Failures and mid-run faults go through the shared
// SwitchFaults model (switch_faults.hpp).
//
// This is the tool behind Fig. 6 (request-to-grant latency) and Fig. 7
// (delay vs throughput, single vs dual receiver), and the measured half
// of the Table 1 compliance bench.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/ckpt/ckpt.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/mgmt/health.hpp"
#include "src/phy/crossbar_optical.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/fifo_pool.hpp"
#include "src/sw/scheduler.hpp"
#include "src/sw/switch_faults.hpp"
#include "src/sw/voq.hpp"
#include "src/telemetry/telemetry.hpp"

namespace osmosis::sw {

struct SwitchSimConfig {
  int ports = 64;
  SchedulerConfig sched;          // sched.ports is overridden by `ports`
  int request_delay_slots = 0;    // ingress -> scheduler control latency
  std::uint64_t warmup_slots = 2'000;
  std::uint64_t measure_slots = 50'000;
  // When set, every grant also reconfigures a gate-accurate
  // phy::BroadcastSelectCrossbar and the simulator asserts the selected
  // light path matches the granted input (slower; used by tests).
  bool validate_optical_path = false;
  // Called for every cell leaving an egress line (warmup included), with
  // the departure slot. api::ServeSim settles its operations here.
  std::function<void(const Cell&, std::uint64_t slot)> on_delivery;
  // Failure injection, applied before the run. A failed optical
  // switching module (egress, receiver) reduces that output's usable
  // receiver count (the dual-receiver redundancy keeps it reachable); a
  // failed broadcast fiber takes all its WDM ingress ports dark (those
  // hosts are offline: they stop generating and the scheduler masks
  // them).
  std::vector<std::pair<int, int>> failed_receivers;
  std::vector<int> failed_fibers;
  // Mid-run fault schedule (src/faults/): module death/revival, fiber
  // cuts, burst errors, grant corruption, adapter stalls. Empty (the
  // default) leaves the fault-free path untouched — results are
  // bit-identical to a build without the fault layer. Lost grants and
  // transfers are re-requested after kGrantTimeoutCycles /
  // kArqTimeoutCycles.
  faults::FaultPlan fault_plan;
  // After the measurement window, keep stepping (arrivals off) until
  // every queue is empty or this budget runs out — the invariant
  // checker needs the post-recovery drain to confirm exactly-once
  // delivery. 0 (default) skips the drain entirely.
  std::uint64_t drain_max_slots = 0;
  // Cell-lifecycle tracing / RunReport export; off by default, no
  // measurable cost when off (see src/telemetry/).
  telemetry::TelemetryConfig telemetry;
  // Runtime invariant verification (conservation / liveness / ordering);
  // always on — pure accounting, never changes behavior. The end-of-run
  // audits follow the drain budget and the failures (a permanent or
  // static one may strand cells).
  chaos::MonitorConfig monitor;
};

struct SwitchSimResult {
  std::string scheduler;
  double offered_load = 0.0;
  double throughput = 0.0;           // delivered cells / slot / port
  std::uint64_t delivered = 0;
  // Delays in cell cycles, ingress arrival -> egress line departure.
  double mean_delay = 0.0;
  double p99_delay = 0.0;
  double max_delay = 0.0;
  double mean_control_delay = 0.0;   // control-class cells only
  double mean_data_delay = 0.0;
  // Request-to-grant latency in cycles (Fig. 6 metric).
  double mean_grant_latency = 0.0;
  double p99_grant_latency = 0.0;
  int max_voq_depth = 0;
  int max_egress_depth = 0;
  std::uint64_t out_of_order = 0;    // must be 0 (Table 1)
  std::uint64_t crossbar_reconfigs = 0;
  // Degraded-operation accounting (fault injection / recovery).
  std::uint64_t offered = 0;           // cells injected, warmup included
  std::uint64_t grant_corruptions = 0;
  std::uint64_t retransmissions = 0;   // ARQ re-requests after FEC loss
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_repaired = 0;
  std::uint64_t faults_recovered = 0;
  double mean_recovery_slots = 0.0;    // repair -> backlog back to baseline
  double max_recovery_slots = 0.0;
  // Worst 512-slot window throughput during measurement — the depth of
  // the dip a mid-run fault carves into the delivery rate.
  double min_window_throughput = 0.0;
  std::uint64_t drained_slots = 0;
  // End-of-run invariant verdict over every cell offered (all phases):
  // delivered exactly once, in per-flow order, none missing.
  bool exactly_once_in_order = false;
  std::uint64_t duplicates = 0;
  std::uint64_t missing = 0;
  // Runtime invariant verdict (chaos::InvariantMonitor): violations of
  // conservation / credit / occupancy / liveness observed during the run.
  std::uint64_t invariant_violations = 0;
  std::string first_violation;  // "" when clean
};

class SwitchSim {
 public:
  SwitchSim(SwitchSimConfig cfg, std::unique_ptr<sim::TrafficGen> traffic);

  /// Runs warmup + measurement and returns the aggregated result.
  /// Equivalent to `while (advance_slot()) {}` followed by finalize().
  SwitchSimResult run();

  /// Incremental execution for checkpoint/restore: advances exactly one
  /// slot of whichever phase is next (warmup, then measurement, then the
  /// optional drain). Returns false once the run is complete.
  bool advance_slot();

  /// Assembles the result after advance_slot() has returned false.
  /// run() == drive-to-completion + finalize(); call once per run.
  SwitchSimResult finalize();

  /// Next slot to execute (also: slots executed so far).
  std::uint64_t current_slot() const { return now_; }

  /// Checkpoint/restore (osmosis.ckpt.v1). save_state emits one chunk
  /// per component; load_state expects a simulator freshly constructed
  /// from the *same* config and traffic spec, and throws ckpt::Error on
  /// structural mismatch. Resuming a restored simulator reproduces the
  /// uninterrupted run bit-for-bit.
  void save_state(ckpt::Writer& w) const;
  void load_state(const ckpt::Reader& r);

  /// Access to the scheduler (tests poke FC hooks through this).
  Scheduler& scheduler() { return *sched_; }

  /// Telemetry access (trace ring, stage book, counters).
  telemetry::Telemetry& telemetry() { return telem_; }
  const telemetry::Telemetry& telemetry() const { return telem_; }

  /// Component health view (§VI.A monitoring): every FRU of the switch
  /// plus the transitions the fault injector drove, with timestamps.
  const mgmt::HealthRegistry& health() const { return faults_.health(); }

  /// Runtime invariant verdict (chaos soak layer).
  const chaos::InvariantMonitor& monitor() const { return monitor_; }

  /// Structured run export; meaningful after run() with
  /// cfg.telemetry.enabled. Stage histograms are in cell cycles.
  telemetry::RunReport report() const;

  /// Raw measurement histograms (cell cycles), for exact cross-run
  /// aggregation via sim::Histogram::merge (the campaign runner's
  /// shard-merge path; summaries alone cannot merge exactly).
  const sim::Histogram& delay_histogram() const { return delay_hist_; }
  const sim::Histogram& grant_latency_histogram() const {
    return grant_latency_;
  }

 private:
  void step(std::uint64_t t, bool measuring, bool inject_traffic);
  /// Records one time-series row (DESIGN.md §11) after slot `t` when the
  /// sampler is enabled and due. Purely slot-driven, so the recorded
  /// series is identical at any thread count and across checkpoints.
  void sample_series(std::uint64_t t);
  template <class Ar>
  void io_core(Ar& a);
  template <class Ar>
  void io_stats(Ar& a);
  phy::BroadcastSelectCrossbar* optical() {
    return optical_ ? &*optical_ : nullptr;
  }
  std::uint64_t backlog() const;

  SwitchSimConfig cfg_;
  std::unique_ptr<sim::TrafficGen> traffic_;
  // Run-loop position (advance_slot): next slot to execute, plus the
  // 512-slot window accounting formerly local to run().
  std::uint64_t now_ = 0;
  std::uint64_t window_mark_ = 0;
  double min_window_thr_ = -1.0;  // -1 = no full window completed yet
  std::unique_ptr<Scheduler> sched_;
  std::vector<VoqBank> voqs_;
  std::vector<std::deque<Cell>> egress_;       // per output
  // Requests in flight on the control path: (deliver_slot, in, out).
  struct PendingRequest {
    std::uint64_t deliver_slot = 0;
    int in = -1;
    int out = -1;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, deliver_slot);
      ckpt::field(a, in);
      ckpt::field(a, out);
    }
  };
  std::deque<PendingRequest> request_pipe_;
  // Issue times of requests, for grant-latency attribution: one FIFO per
  // VOQ (in * ports + out). A lost grant pops its time and the retry
  // appends a new one, while the cell stays at the head of its VOQ.
  FifoPool<std::uint64_t> request_times_;
  std::optional<phy::BroadcastSelectCrossbar> optical_;

  // ---- failures, runtime fault injection & recovery ---------------------
  SwitchFaults faults_;
  chaos::InvariantMonitor monitor_;
  // Re-requests pending after a corrupted grant (missed-grant timeout)
  // or a corrupted transfer (ARQ timeout): slot -> (input, output).
  std::multimap<std::uint64_t, std::pair<int, int>> retry_queue_;
  std::uint64_t offered_ = 0;
  std::uint64_t drained_slots_ = 0;

  // statistics
  sim::Histogram delay_hist_;
  sim::Histogram control_delay_;
  sim::Histogram data_delay_;
  sim::Histogram grant_latency_;
  sim::ThroughputMeter meter_;
  int max_egress_depth_ = 0;

  // telemetry
  telemetry::Telemetry telem_;
  std::vector<std::uint64_t> enqueued_per_port_;   // per input
  std::vector<std::uint64_t> delivered_per_port_;  // per output, measured
  std::uint64_t grants_issued_ = 0;
  // Time-series rate cursors: deliveries (all phases) and the previous
  // sample's cursor values, for per-window rates. Checkpointed with the
  // core so a resumed run records identical rows.
  std::uint64_t total_delivered_ = 0;
  std::uint64_t last_sample_slot_ = 0;
  std::uint64_t last_sample_delivered_ = 0;
  std::uint64_t last_sample_grants_ = 0;
};

/// Convenience: build, run, and return the result for a uniform
/// Bernoulli workload (the Fig. 7 sweep helper).
SwitchSimResult run_uniform(const SwitchSimConfig& cfg, double load,
                            std::uint64_t seed);

}  // namespace osmosis::sw
