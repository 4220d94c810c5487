#pragma once
// Recovery accounting for degraded operation. RecoveryTracker measures
// time to recover: a fault snapshots the backlog at onset; after the
// repair, the system counts as recovered on the first slot the backlog
// returns to that baseline, and the elapsed repair->recovered time
// feeds the RunReport. (The per-flow exactly-once audit is
// sim::FlowLedger, owned by chaos::InvariantMonitor.)

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/sim/stats.hpp"

namespace osmosis::faults {

class RecoveryTracker {
 public:
  /// A fault keyed `key` began at `t` with the given system backlog.
  void on_fault(std::uint64_t t, const std::string& key,
                std::uint64_t baseline_backlog);

  /// The fault was repaired at `t`; recovery timing starts here.
  void on_repair(std::uint64_t t, const std::string& key);

  /// Call once per slot with the current total backlog (queued cells).
  void observe(std::uint64_t t, std::uint64_t backlog);

  std::uint64_t faults() const { return faults_; }
  std::uint64_t repaired() const { return repaired_; }
  std::uint64_t recovered() const { return recovered_; }
  double mean_recovery_slots() const {
    return recovered_ ? sum_recovery_ / static_cast<double>(recovered_) : 0.0;
  }
  double max_recovery_slots() const { return max_recovery_; }

  /// MTTR distribution: one sample per recovery (repair -> backlog back
  /// at the fault-onset baseline), in slots. Feeds the RunReport
  /// availability section's "mttr" histogram.
  const sim::Histogram& recovery_histogram() const { return recovery_hist_; }

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, open_);
    ckpt::field(a, faults_);
    ckpt::field(a, repaired_);
    ckpt::field(a, recovered_);
    ckpt::field(a, sum_recovery_);
    ckpt::field(a, max_recovery_);
    ckpt::field(a, recovery_hist_);
  }

 private:
  struct Open {
    std::uint64_t baseline = 0;
    std::uint64_t repaired_at = 0;
    bool repaired = false;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, baseline);
      ckpt::field(a, repaired_at);
      ckpt::field(a, repaired);
    }
  };
  std::unordered_map<std::string, Open> open_;
  std::uint64_t faults_ = 0;
  std::uint64_t repaired_ = 0;
  std::uint64_t recovered_ = 0;
  double sum_recovery_ = 0.0;
  double max_recovery_ = 0.0;
  sim::Histogram recovery_hist_{256.0};
};

}  // namespace osmosis::faults
