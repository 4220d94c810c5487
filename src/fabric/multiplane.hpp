#pragma once
// Multi-plane fabric: stripe each host port's traffic across P parallel
// single-stage switch planes. This is how the paper's port bandwidths
// work in practice — a "12x QDR" InfiniBand port is twelve lanes, and a
// 12-25 GByte/s OSMOSIS fabric port aggregates multiple 40 Gb/s optical
// planes. Each plane is internally in-order, but planes see independent
// queueing, so cells of one flow can cross each other BETWEEN planes;
// the egress resequencing buffer restores the Table 1 ordering
// guarantee, and its depth/extra delay is the price of striping, which
// this simulator measures.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/chaos/monitor.hpp"
#include "src/ckpt/ckpt.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/faults/invariant.hpp"
#include "src/mgmt/health.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/scheduler.hpp"
#include "src/sw/voq.hpp"

namespace osmosis::fabric {

struct MultiPlaneConfig {
  int ports = 16;   // host ports (each striped over all planes)
  int planes = 4;   // parallel switch planes
  sw::SchedulerKind scheduler = sw::SchedulerKind::kFlppr;
  int receivers = 1;  // each plane's scheduler runs its kind's default
  // Offered load PER PLANE LINE (so aggregate per-port load = planes x
  // load cells/slot).
  std::uint64_t warmup_slots = 1'000;
  std::uint64_t measure_slots = 20'000;
  // Mid-run fault schedule (src/faults/). The multi-plane port accepts
  // kPlaneFailure entries (a = plane index; transient or permanent).
  // When a plane dies, its scheduler and crossbar freeze; the ingress
  // adapters re-steer both their parked VOQ cells and all new arrivals
  // to the next live plane, and the egress resequencer absorbs the
  // cross-plane reordering — delivery stays exactly-once, in-order.
  faults::FaultPlan fault_plan;
  // Extra slots (arrivals off) after the measurement window so the
  // invariant checker can confirm exactly-once delivery. 0 = no drain.
  std::uint64_t drain_max_slots = 0;
  // Runtime invariant verification (chaos soak layer); pure accounting.
  chaos::MonitorConfig monitor;
};

struct MultiPlaneResult {
  int ports = 0;
  int planes = 0;
  double offered_load_per_plane = 0.0;
  double throughput_per_plane = 0.0;  // delivered / slot / port / plane
  std::uint64_t delivered = 0;
  double mean_delay_slots = 0.0;      // injection -> in-order delivery
  double p99_delay_slots = 0.0;
  double mean_resequencing_wait = 0.0;  // extra slots spent in the buffer
  int max_resequencer_depth = 0;        // cells parked at one egress
  std::uint64_t cross_plane_ooo = 0;    // raw arrivals out of order
  std::uint64_t post_resequencer_ooo = 0;  // must be 0
  // Degraded-operation accounting (fault injection / recovery).
  std::uint64_t offered = 0;
  std::uint64_t resteered = 0;  // cells moved off a dead plane
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
};

class MultiPlaneSim {
 public:
  /// One traffic generator per plane, each covering `ports` endpoints.
  MultiPlaneSim(MultiPlaneConfig cfg,
                std::vector<std::unique_ptr<sim::TrafficGen>> per_plane);

  MultiPlaneResult run();

  /// Incremental stepping for checkpoint/restore: advances one slot of
  /// the warmup / measurement / drain schedule; returns false when the
  /// run is complete. run() == { while (advance_slot()) {} finalize(); }.
  bool advance_slot();

  /// Assembles the result. Call once, after advance_slot() returns false.
  MultiPlaneResult finalize();

  std::uint64_t current_slot() const { return now_; }

  /// Snapshots every mutable field (plane schedulers, VOQs, egress
  /// lines, resequencers, stats, fault cursor) into "multiplane.*"
  /// chunks. The loader must be a MultiPlaneSim built from the identical
  /// config; structural mismatches throw ckpt::Error.
  void save_state(ckpt::Writer& w) const;
  void load_state(const ckpt::Reader& r);

  /// Component health view ("plane/<p>") with injector transitions.
  const mgmt::HealthRegistry& health() const { return health_; }

  /// Runtime invariant verdict (chaos soak layer).
  const chaos::InvariantMonitor& monitor() const { return monitor_; }

 private:
  struct Plane {
    std::unique_ptr<sw::Scheduler> sched;
    std::vector<sw::VoqBank> voqs;
    std::vector<std::deque<sw::Cell>> egress;
  };
  struct Parked {
    sw::Cell cell;
    std::uint64_t egress_slot = 0;  // when it left the plane

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, cell);
      ckpt::field(a, egress_slot);
    }
  };

  void step(std::uint64_t t, bool measuring, bool inject_traffic);
  void park(const sw::Cell& cell, std::uint64_t t);
  void deliver_in_order(int dst, std::uint64_t t, bool measuring);
  void apply_fault_transitions(std::uint64_t t);
  int next_live_plane(int from) const;
  std::uint64_t backlog() const;
  template <class Ar>
  void io_core(Ar& a);
  template <class Ar>
  void io_resequencers(Ar& a);
  template <class Ar>
  void io_stats(Ar& a);

  MultiPlaneConfig cfg_;
  std::vector<std::unique_ptr<sim::TrafficGen>> traffic_;
  std::vector<Plane> planes_;
  std::uint64_t now_ = 0;  // next slot advance_slot() will run
  // Resequencers, one per egress port. next_seq_[dst * ports + src] is
  // flow (src, dst)'s next in-order sequence; parked_[dst] holds the
  // cells waiting at egress dst, sorted by (src, seq). At most `planes`
  // cells reach one egress per slot, so the sorted insert stays short.
  std::vector<std::uint64_t> next_seq_;
  std::vector<std::vector<Parked>> parked_;

  sim::Histogram delay_hist_{256.0};
  sim::MeanVar reseq_wait_;
  sim::ThroughputMeter meter_;
  std::uint64_t cross_plane_ooo_ = 0;
  int max_park_depth_ = 0;

  // Runtime fault injection & recovery.
  std::optional<faults::FaultInjector> injector_;
  mgmt::HealthRegistry health_;
  chaos::InvariantMonitor monitor_;
  faults::RecoveryTracker recovery_;
  std::vector<std::uint8_t> plane_down_;
  std::uint64_t offered_ = 0;
  std::uint64_t resteered_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t faults_repaired_ = 0;
  std::uint64_t drained_slots_ = 0;
};

/// Uniform Bernoulli traffic on every plane.
MultiPlaneResult run_multiplane_uniform(const MultiPlaneConfig& cfg,
                                        double load_per_plane,
                                        std::uint64_t seed);

}  // namespace osmosis::fabric
