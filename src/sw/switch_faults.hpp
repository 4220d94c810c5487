#pragma once
// The single-stage switch's fault model (§IV.C, §VI.A), one copy shared
// by both switch engines: SwitchSim (slot time) and EventSwitchSim (ns
// time, faults applied at cell-cycle boundaries). It owns the FRU
// inventory and its health view, the fault-plan range checks, the
// static failures, the fault injector, the surviving-receiver map and
// the refcounted input masks, and it decides what the plan does to each
// grant. Each engine keeps its own timing, queues and retry mechanism.
// The optional gate-accurate crossbar lives inside SwitchSim and is
// passed in per call.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/faults/fault_injector.hpp"
#include "src/faults/fault_plan.hpp"
#include "src/faults/invariant.hpp"
#include "src/mgmt/health.hpp"
#include "src/phy/crossbar_optical.hpp"
#include "src/sw/scheduler.hpp"

namespace osmosis::sw {

/// Broadcast fibers of a `ports`-port switch: the smallest power of two
/// whose square covers the port count (8 fibers x 8 wavelengths at 64
/// ports). Input `in` transmits on fiber in / (ports / fibers).
int broadcast_fibers(int ports);

/// Cycles until an ingress adapter re-files a request whose grant was
/// corrupted on the control path (the missed-grant timeout), or whose
/// cell arrived FEC-uncorrectable or never left (the go-back-N timeout,
/// derived from the link round trip).
inline constexpr std::uint64_t kGrantTimeoutCycles = 8;
inline constexpr std::uint64_t kArqTimeoutCycles = 8;

/// What the plan's error rolls did to one grant.
enum class GrantLoss : std::uint8_t {
  kNone,      // no roll hit (the path may still have gone stale)
  kGrant,     // corrupted grant message: the adapter never transmits
  kTransfer,  // FEC-uncorrectable cell: the egress discards it
};

class SwitchFaults {
 public:
  /// Declares every FRU of a `ports`-port switch with `receivers`
  /// receivers per egress, and range-checks the mid-run `plan`.
  SwitchFaults(int ports, int receivers, const faults::FaultPlan& plan);

  /// Applies receivers (output, rx) and broadcast fibers failed before
  /// slot 0. A dark fiber's hosts are offline: they generate nothing and
  /// the scheduler masks their inputs for good.
  void fail_at_start(const std::vector<std::pair<int, int>>& receivers,
                     const std::vector<int>& fibers, Scheduler& sched,
                     phy::BroadcastSelectCrossbar* optical);

  int fibers() const { return fibers_; }
  int wavelengths() const { return wavelengths_; }
  /// A mid-run plan is armed.
  bool active() const { return injector_.has_value(); }
  /// A permanent or static failure may strand cells past the drain.
  bool may_strand() const { return may_strand_; }
  /// Input `in` sits on a statically failed fiber.
  bool dark(int in) const { return dark_[static_cast<std::size_t>(in)] != 0; }
  /// Physical receivers still alive at output `out`, indexed by the
  /// logical receiver a grant names.
  const std::vector<int>& survivors(int out) const {
    return survivors_[static_cast<std::size_t>(out)];
  }

  /// Applies every transition due at cycle `t` (call once per cycle
  /// while active()). `backlog()` is read only when one is due: it is
  /// the baseline recovery is measured against.
  template <class Backlog>
  void tick(std::uint64_t t, Scheduler& sched,
            phy::BroadcastSelectCrossbar* optical, Backlog&& backlog) {
    const std::vector<faults::FaultTransition> due = injector_->tick(t);
    if (!due.empty()) apply(due, t, backlog(), sched, optical);
  }
  /// Recovery bookkeeping at the end of cycle `t` (while active()).
  void observe(std::uint64_t t, std::uint64_t backlog) {
    recovery_.observe(t, backlog);
  }

  /// Rolls the grant-corruption die, then, for a grant that survived,
  /// the FEC die of a transfer from `input`. kNone without a plan.
  GrantLoss roll(int input) {
    if (!injector_) return GrantLoss::kNone;
    if (injector_->corrupt_grant()) return GrantLoss::kGrant;
    return injector_->corrupt_transfer(input) ? GrantLoss::kTransfer
                                              : GrantLoss::kNone;
  }
  /// The grant's path failed while it was in flight (FLPPR issues a
  /// match up to depth-1 cycles after computing it, and grants may ride
  /// a control fiber): its input is now masked, or its output lost the
  /// granted receiver. The transfer is lost and heals by the ARQ path.
  bool stale(const Grant& g) const {
    return injector_ &&
           (block_depth_[static_cast<std::size_t>(g.input)] > 0 ||
            g.receiver >= static_cast<int>(survivors(g.output).size()));
  }
  /// Counts a grant that lost (`loss`) or went stale, and returns the
  /// cycles until its adapter re-files the request.
  std::uint64_t retry_cycles(GrantLoss loss) {
    if (loss == GrantLoss::kGrant) {
      ++grant_corruptions_;
      return kGrantTimeoutCycles;
    }
    ++retransmissions_;
    return kArqTimeoutCycles;
  }

  /// Open fault windows and transitions not yet fired.
  int active_faults() const {
    return injector_ ? injector_->active_faults() : 0;
  }
  std::size_t pending() const { return injector_ ? injector_->pending() : 0; }

  std::uint64_t injected() const { return injected_; }
  std::uint64_t repaired() const { return repaired_; }
  std::uint64_t grant_corruptions() const { return grant_corruptions_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  const faults::RecoveryTracker& recovery() const { return recovery_; }
  const mgmt::HealthRegistry& health() const { return health_; }

  // ---- checkpoint pieces, each written where its engine's chunk
  // carries it (osmosis.ckpt.v1) ----------------------------------------
  /// SwitchSim's core chunk: survivors, dark inputs, then io_masks.
  template <class Ar>
  void io_paths(Ar& a) {
    ckpt::field(a, survivors_);
    ckpt::field(a, dark_);
    io_flags(a);
    if constexpr (Ar::kLoading) {
      if (survivors_.size() != rx_failed_.size() ||
          dark_.size() != rx_failed_.size())
        throw ckpt::Error("switch fault state sized for a different port "
                          "count");
    }
  }
  /// EventSwitchSim's core chunk: the receiver-failure flags and the
  /// input-mask refcount; the survivors follow from the flags.
  template <class Ar>
  void io_masks(Ar& a) {
    io_flags(a);
    if constexpr (Ar::kLoading) {
      for (std::size_t out = 0; out < rx_failed_.size(); ++out)
        rebuild_survivors(out);
    }
  }
  /// Grant corruptions, retransmissions, faults injected and repaired.
  template <class Ar>
  void io_counters(Ar& a) {
    ckpt::field(a, grant_corruptions_);
    ckpt::field(a, retransmissions_);
    ckpt::field(a, injected_);
    ckpt::field(a, repaired_);
  }
  /// The stats chunk's tail: recovery tracker, then health registry.
  template <class Ar>
  void io_health(Ar& a) {
    ckpt::field(a, recovery_);
    ckpt::field(a, health_);
  }
  /// The `*.faults` chunk, written only while active().
  template <class Ar>
  void io_injector(Ar& a) {
    ckpt::field(a, *injector_);
  }

 private:
  void apply(const std::vector<faults::FaultTransition>& due, std::uint64_t t,
             std::uint64_t backlog, Scheduler& sched,
             phy::BroadcastSelectCrossbar* optical);
  void set_module_state(int out, int rx, bool failed, std::uint64_t t,
                        Scheduler& sched,
                        phy::BroadcastSelectCrossbar* optical);
  void rebuild_survivors(std::size_t out);
  void mask_input(int in, bool block, Scheduler& sched);
  template <class Ar>
  void io_flags(Ar& a) {
    ckpt::field(a, rx_failed_);
    ckpt::field(a, block_depth_);
    if constexpr (Ar::kLoading) {
      if (rx_failed_.size() != static_cast<std::size_t>(ports_) ||
          block_depth_.size() != static_cast<std::size_t>(ports_))
        throw ckpt::Error("switch fault state sized for a different port "
                          "count");
    }
  }

  int ports_ = 0;
  int receivers_ = 1;
  int fibers_ = 1;
  int wavelengths_ = 1;
  bool may_strand_ = false;
  std::optional<faults::FaultInjector> injector_;
  mgmt::HealthRegistry health_;
  faults::RecoveryTracker recovery_;
  // Per output: receiver-failure flags (static and runtime combined) and
  // the physical receiver behind each logical one. Per input: dark flag
  // (static fiber failure) and the scheduler input-mask refcount — a
  // fiber cut and an adapter stall may overlap on one input, and the
  // mask lifts only when both clear.
  std::vector<std::vector<std::uint8_t>> rx_failed_;
  std::vector<std::vector<int>> survivors_;
  std::vector<std::uint8_t> dark_;
  std::vector<int> block_depth_;
  std::uint64_t grant_corruptions_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t repaired_ = 0;
};

}  // namespace osmosis::sw
