#pragma once
// Event-driven single-stage switch simulation — the OMNeT++-style
// environment the authors used for their §V delay/throughput analyses,
// rebuilt on a checkpointable event heap with real time in nanoseconds.
//
// Two purposes:
//  1. Cross-validation: with uniform (zero) control distances it must
//     reproduce the slot-synchronous SwitchSim's delay/throughput.
//  2. Heterogeneous geometry: each ingress adapter can sit at its own
//     fiber distance from the central scheduler (the demonstrator's
//     multi-meter scheduler-to-SOA control cables, §VI.B). Requests and
//     grants then fly with per-adapter latencies; cells are re-aligned
//     to the cell-cycle grid on launch (the [20] synchronization
//     function), and the simulator counts how often ragged grant
//     arrivals would overbook an output's receivers in one cycle — the
//     quantitative reason the hardware equalizes control paths.
//
// The VOQs, scheduler and egress lines are the SwitchCore SwitchSim
// runs (switch_core.hpp), and mid-run faults go through the SwitchFaults
// model SwitchSim uses, at cell-cycle boundaries.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/ckpt/ckpt.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/mgmt/health.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/fifo_pool.hpp"
#include "src/sw/scheduler.hpp"
#include "src/sw/switch_core.hpp"
#include "src/sw/switch_faults.hpp"
#include "src/telemetry/telemetry.hpp"

namespace osmosis::sw {

struct EventSwitchConfig {
  int ports = 16;
  SchedulerConfig sched;
  double cell_ns = 51.2;
  // Per-adapter one-way control-fiber delay to the scheduler (requests
  // AND grants travel it; the data fiber to the crossbar is assumed to
  // run alongside). Missing entries use `default_ctrl_ns`.
  std::vector<double> ctrl_fiber_ns;
  double default_ctrl_ns = 0.0;
  double warmup_ns = 100'000.0;
  double measure_ns = 1'000'000.0;
  // Cell-lifecycle tracing / RunReport export (timestamps in ns, so the
  // stage histograms take the ns shape). Off by default.
  telemetry::TelemetryConfig telemetry;
  // Mid-run fault schedule (src/faults/). Fault slots are cell-cycle
  // indices, applied at the cycle boundary. Empty = untouched fault-free
  // path (bit-identical results). Lost grants and transfers are
  // re-requested after kGrantTimeoutCycles / kArqTimeoutCycles.
  faults::FaultPlan fault_plan;
  // Extra cycles (arrivals off) after the measurement window so the
  // invariant checker can confirm exactly-once delivery. 0 = no drain.
  std::uint64_t drain_max_cycles = 0;
  // Runtime invariant verification (chaos soak layer); pure accounting.
  chaos::MonitorConfig monitor;
};

struct EventSwitchResult {
  double offered_load = 0.0;
  double throughput = 0.0;          // cells/cycle/port
  std::uint64_t delivered = 0;
  double mean_delay_ns = 0.0;       // VOQ arrival -> egress departure
  double p99_delay_ns = 0.0;
  double mean_delay_cycles = 0.0;
  double mean_grant_latency_ns = 0.0;  // request issue -> grant at adapter
  std::uint64_t receiver_conflicts = 0;  // cycles an output was overbooked
  std::uint64_t out_of_order = 0;
  // Degraded-operation accounting (fault injection / recovery).
  std::uint64_t offered = 0;
  std::uint64_t grant_corruptions = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_repaired = 0;
  std::uint64_t faults_recovered = 0;
  double mean_recovery_cycles = 0.0;
  double max_recovery_cycles = 0.0;
  std::uint64_t drained_cycles = 0;
  bool exactly_once_in_order = false;
  std::uint64_t duplicates = 0;
  std::uint64_t missing = 0;
  std::uint64_t invariant_violations = 0;
  std::string first_violation;  // "" when clean
};

class EventSwitchSim {
 public:
  EventSwitchSim(EventSwitchConfig cfg,
                 std::unique_ptr<sim::TrafficGen> traffic);

  EventSwitchResult run();

  /// Incremental stepping for checkpoint/restore: performs one unit of
  /// event-loop work (one fired event in the main window, one drain
  /// cycle, or one flushed event) and returns false when the run is
  /// complete. run() == { while (advance()) {} finalize(); }.
  bool advance();

  /// Assembles the result and writes the end-of-run telemetry counters.
  /// Call exactly once, after advance() returns false.
  EventSwitchResult finalize();

  /// Snapshots every mutable field — including the pending typed event
  /// heap, so in-flight requests/grants/cells survive — into "event.*"
  /// chunks. The loader must be an EventSwitchSim built from the
  /// identical config; structural mismatches throw ckpt::Error.
  void save_state(ckpt::Writer& w) const;
  void load_state(const ckpt::Reader& r);

  telemetry::Telemetry& telemetry() { return telem_; }
  const telemetry::Telemetry& telemetry() const { return telem_; }

  /// Component health view with the injector-driven transitions.
  const mgmt::HealthRegistry& health() const { return faults_.health(); }

  /// Runtime invariant verdict (chaos soak layer).
  const chaos::InvariantMonitor& monitor() const { return monitor_; }

  /// Structured run export; stage histograms are in nanoseconds.
  telemetry::RunReport report() const;

  /// Raw measurement histograms (ns), for exact cross-run aggregation
  /// via sim::Histogram::merge.
  const sim::Histogram& delay_histogram() const { return delay_ns_; }
  const sim::Histogram& grant_latency_histogram() const { return grant_ns_; }

 private:
  // The event loop is a typed min-heap rather than closures so pending
  // events serialize: each Ev is plain data interpreted by fire_next().
  // Events fire in (time_ns, seq) order: equal timestamps fire in the
  // order they were scheduled.
  enum class EvKind : std::uint8_t {
    kCycle = 0,    // cell-cycle boundary: on_cycle(), then re-arm
    kRequest = 1,  // request lands at the scheduler; a=in, b=dst, d=issue time
    kGrant = 2,    // grant lands at the adapter; a/b/c=Grant, d=requested_at
    kRetry = 3,    // ARQ timeout expires; a=in, b=dst
    kLanding = 4,  // cell crosses into the egress buffer
  };
  struct Ev {
    double time_ns = 0.0;
    std::uint64_t seq = 0;
    EvKind kind = EvKind::kCycle;
    int a = -1;
    int b = -1;
    int c = -1;
    double d = 0.0;
    Cell cell;

    template <class Ar>
    void io_state(Ar& ar) {
      ckpt::field(ar, time_ns);
      ckpt::field(ar, seq);
      ckpt::field(ar, kind);
      ckpt::field(ar, a);
      ckpt::field(ar, b);
      ckpt::field(ar, c);
      ckpt::field(ar, d);
      ckpt::field(ar, cell);
    }
  };
  struct EvLater {
    bool operator()(const Ev& x, const Ev& y) const {
      if (x.time_ns != y.time_ns) return x.time_ns > y.time_ns;
      return x.seq > y.seq;
    }
  };
  enum class Phase : std::uint8_t { kMain = 0, kDrain = 1, kFlush = 2,
                                    kDone = 3 };

  void push_event(Ev ev);  // stamps seq, heapifies
  void fire_next();
  double ctrl_ns(int adapter) const;
  void on_cycle();
  /// Records one time-series row after cycle `cycle` when the sampler is
  /// enabled and due (DESIGN.md §11); cycle-count driven, deterministic.
  void sample_series(std::uint64_t cycle);
  void on_grant_arrival(Grant g, double requested_at);
  /// Files a request for VOQ (in, out), issued at `issued_ns`.
  void request(int in, int out, double issued_ns);
  std::uint64_t backlog() const {
    return core_.backlog() + in_flight_ + retry_pending_;
  }
  template <class Ar>
  void io_core(Ar& a);
  template <class Ar>
  void io_stats(Ar& a);
  /// Every chunk, in order: saves to a Writer, loads from a Reader.
  template <class Io>
  void io_chunks(Io& io);

  EventSwitchConfig cfg_;
  std::unique_ptr<sim::TrafficGen> traffic_;
  SwitchCore core_;
  std::vector<Ev> events_;  // min-heap (std::push_heap/pop_heap, EvLater)
  double now_ns_ = 0.0;
  std::uint64_t next_seq_ = 0;
  Phase phase_ = Phase::kMain;
  double drain_horizon_ = 0.0;
  bool cycles_active_ = true;
  std::uint64_t advance_count_ = 0;
  FifoPool<double> request_times_;  // per (in,out) FIFO, in * ports + out
  // Receiver bookings per (output, cell-cycle index).
  std::map<std::pair<int, std::uint64_t>, int> slot_bookings_;
  std::uint64_t cycle_ = 0;

  sim::Histogram delay_ns_{8192.0, 1.1};
  sim::Histogram grant_ns_{1024.0, 1.1};
  sim::ThroughputMeter meter_;
  std::uint64_t receiver_conflicts_ = 0;

  // ---- runtime fault injection & recovery -------------------------------
  SwitchFaults faults_;
  chaos::InvariantMonitor monitor_;
  bool draining_ = false;
  // Cells between VOQ pop and egress landing, plus re-requests in
  // flight: both keep the post-run drain loop alive.
  std::uint64_t in_flight_ = 0;
  std::uint64_t retry_pending_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t drained_cycles_ = 0;

  // telemetry
  telemetry::Telemetry telem_;
  std::vector<std::uint64_t> delivered_per_port_;
  // Time-series rate cursors (checkpointed with the core).
  std::uint64_t total_delivered_ = 0;
  std::uint64_t last_sample_cycle_ = 0;
  std::uint64_t last_sample_delivered_ = 0;
};

/// Uniform Bernoulli helper.
EventSwitchResult run_event_uniform(const EventSwitchConfig& cfg, double load,
                                    std::uint64_t seed);

}  // namespace osmosis::sw
