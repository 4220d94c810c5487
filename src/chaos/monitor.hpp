#pragma once
// Runtime invariant verification for the chaos soak subsystem
// (DESIGN.md §12). The InvariantMonitor owns the engine's per-flow
// sim::FlowLedger (DESIGN.md §18): every cell takes its flow sequence
// number from it and every delivery is audited against it, which feeds
// both the results' out-of-order count and the end-of-run exactly-once
// verdict. Around it the monitor keeps continuously checked ledgers,
// evaluated every slot inside the simulators:
//
//  * cell conservation — offered == delivered + in-flight/queued,
//    checked at every slot boundary and once more at end of run;
//  * credit-balance accounting (fabric) — available credits + in-flight
//    credit messages + downstream buffer occupancy + cells in flight
//    toward flow-controlled buffers must equal the total credit pool
//    exactly, and no pool may go negative;
//  * occupancy caps — a named queue (e.g. a fabric input buffer) must
//    never exceed its declared capacity;
//  * liveness watchdog — backlog nonzero with no delivery progress for
//    `deadlock_slots`, while no fault window is open and no retries are
//    pending, is declared a deadlock.
//
// The monitor is pure accounting: it never changes simulator behavior,
// so a fault-free run with the monitor on is bit-identical to one
// without it. Violations are counted, timestamped (first offender), and
// logged as human-readable strings that flow into RunReport under
// "invariants" and into every chaos trial verdict.
//
// A seeded Defect can be armed through MonitorConfig as a test hook: it
// corrupts the *accounting* (never the simulator) in a deterministic
// way so the chaos shrinker and the `chaos_repro` replay tool can be
// exercised end-to-end against a known injected bug.

#include <cstdint>
#include <string>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/sim/flow_ledger.hpp"

namespace osmosis::telemetry {
struct RunReport;
}

namespace osmosis::chaos {

/// Deliberately injected accounting bugs (test hook for the shrinker /
/// repro round trip). Every defect is gated on an open fault window so
/// a minimal repro always retains at least one fault event.
enum class Defect : std::uint8_t {
  kNone = 0,
  // Every Nth deliver() call while a fault window is open is silently
  // swallowed — models a delivery-accounting bug in fault handling.
  kDropDeliveryDuringFault = 1,
  // Every Nth deliver() call while a fault window is open is recorded
  // twice — models a duplicate-completion bug.
  kDuplicateDeliveryDuringFault = 2,
  // Every Nth credit-ledger check while a fault window is open leaks one
  // credit from the reported balance — models a credit-return bug.
  kLeakCreditDuringFault = 3,
};

const char* to_string(Defect d);
/// Inverse of to_string; aborts (OSMOSIS_REQUIRE) on an unknown name.
Defect defect_from_string(const std::string& name);

struct MonitorConfig {
  // Liveness watchdog horizon: backlog > 0 with zero deliveries for this
  // many slots (no open fault, no pending retries) => deadlock verdict.
  std::uint64_t deadlock_slots = 2'048;
  // Test hook (see Defect).
  Defect defect = Defect::kNone;
  std::uint64_t defect_period = 7;  // apply to every Nth opportunity
};

class InvariantMonitor {
 public:
  InvariantMonitor() = default;
  explicit InvariantMonitor(const MonitorConfig& cfg) : cfg_(cfg) {}

  /// Re-arms the configuration; call before the first ledger feed. The
  /// engine derives the two end-of-run audit flags. `expect_drain`: the
  /// run ends with a drain phase, so everything offered should be
  /// delivered by finish(); without one the run legitimately ends
  /// mid-flight and the stranding/missing audits are skipped.
  /// `allow_stranded`: a permanent (or static) failure may legitimately
  /// strand cells, so the missing audit is skipped (duplicates and
  /// reorders still count) and a residual backlog is accepted.
  void configure(const MonitorConfig& cfg, bool allow_stranded,
                 bool expect_drain) {
    cfg_ = cfg;
    allow_stranded_ = allow_stranded;
    expect_drain_ = expect_drain;
  }
  /// Sizes the flow ledger to `flows` dense ids whose order view keys
  /// flow f as (f / width, f % width); call before the first send.
  void preset_flows(std::size_t flows, std::size_t width) {
    ledger_ = sim::FlowLedger(flows, width);
  }

  // ---- ledger feed (called from the simulators' hot paths) ------------
  /// A cell of `flow` entered the system; returns its flow sequence.
  std::uint64_t send(std::uint64_t flow) { return ledger_.send(flow); }
  /// The cell of `flow` with sequence `seq` left the system.
  void deliver(std::uint64_t flow, std::uint64_t seq) {
    if (cfg_.defect == Defect::kNone)
      ledger_.deliver(flow, seq);
    else
      deliver_with_defect(flow, seq);
  }
  /// A cell refused at the source by degraded-mode admission control —
  /// before it gets a sequence number, so it never enters the offered
  /// ledger. Counted explicitly here (and cross-checked against the
  /// simulator's generation counter via check_generated) so shedding is
  /// never silent.
  void shed(std::uint64_t n = 1) { shed_ += n; }

  /// Source-side conservation: everything the traffic model generated
  /// was either admitted (offered) or explicitly shed.
  void check_generated(std::uint64_t slot, std::uint64_t generated);

  // ---- per-slot checks ------------------------------------------------
  struct SlotState {
    std::uint64_t slot = 0;
    std::uint64_t queued = 0;  // every cell resident in queues/pipelines
    int active_faults = 0;     // open fault windows this slot
    std::uint64_t retries_pending = 0;  // re-requests waiting on timeouts
  };
  /// Conservation + liveness, evaluated once per slot (or cycle).
  void end_slot(const SlotState& s);

  /// Occupancy cap: `value` must never exceed `cap` (cap 0 = disabled).
  void check_occupancy(std::uint64_t slot, const char* what,
                       std::uint64_t value, std::uint64_t cap);

  /// Credit-conservation ledger (fabric): the reported balance must
  /// equal the total credit pool exactly, and the smallest individual
  /// pool must be non-negative.
  void check_credits(std::uint64_t slot, std::uint64_t ledger,
                     std::uint64_t pool_total, long long min_pool);

  /// End-of-run audit: exactly-once verdict plus residual conservation.
  /// Call once, from the simulator's finalize().
  void finish(std::uint64_t slot, std::uint64_t residual_backlog);

  // ---- verdict --------------------------------------------------------
  bool ok() const { return violations_ == 0; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t checks() const { return checks_; }
  /// Slot of the first violation; ~0 when clean.
  std::uint64_t first_violation_slot() const { return first_violation_slot_; }
  const std::vector<std::string>& violation_log() const { return log_; }
  /// "invariant: detail" of the first violation, or "" when clean.
  std::string first_violation() const {
    return log_.empty() ? std::string() : log_.front();
  }

  std::uint64_t offered_cells() const { return ledger_.sent(); }
  std::uint64_t delivered_cells() const { return ledger_.delivered(); }
  std::uint64_t shed_cells() const { return shed_; }
  /// Out-of-order count and the exactly-once report().
  const sim::FlowLedger& ledger() const { return ledger_; }

  /// Fills RunReport::invariants (+ violation log). No-op before any
  /// ledger feed so unrelated reports stay byte-identical.
  void to_report(telemetry::RunReport& r) const;

  /// The ledger's flow_seq and order views, which engines write in their
  /// own chunks. Load them in this order, then io_state, which carries
  /// the exactly-once view.
  template <class Ar>
  void io_flow_seq(Ar& a) {
    ledger_.io_flow_seq(a);
  }
  template <class Ar>
  void io_order(Ar& a) {
    ledger_.io_order(a);
  }

  template <class Ar>
  void io_state(Ar& a) {
    ledger_.io_exactly_once(a);
    std::uint64_t offered = ledger_.sent();
    std::uint64_t delivered = ledger_.delivered();
    ckpt::field(a, offered);
    ckpt::field(a, delivered);
    if constexpr (Ar::kLoading) {
      if (offered != ledger_.sent() || delivered != ledger_.delivered())
        throw ckpt::Error("invariant monitor totals disagree with its flow "
                          "ledger in checkpoint");
    }
    // The v1 layout keeps a count of cells dropped by declared faults
    // here; no fault drops a cell, so the count is always zero.
    std::uint64_t dropped = 0;
    ckpt::field(a, dropped);
    if (dropped != 0)
      throw ckpt::Error("checkpoint holds cells dropped by a fault");
    ckpt::field(a, checks_);
    ckpt::field(a, violations_);
    ckpt::field(a, first_violation_slot_);
    ckpt::field(a, last_progress_slot_);
    ckpt::field(a, last_delivered_);
    ckpt::field(a, open_faults_);
    ckpt::field(a, defect_counter_);
    ckpt::field(a, credit_leak_);
    ckpt::field(a, finished_);
    ckpt::field(a, log_);
    ckpt::field(a, shed_);
  }

 private:
  void violate(std::uint64_t slot, const std::string& what);
  bool defect_fires(Defect kind);
  void deliver_with_defect(std::uint64_t flow, std::uint64_t seq);

  MonitorConfig cfg_;
  bool allow_stranded_ = false;
  bool expect_drain_ = false;
  sim::FlowLedger ledger_;
  std::uint64_t shed_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t first_violation_slot_ = ~0ULL;
  // Liveness watchdog state.
  std::uint64_t last_progress_slot_ = 0;
  std::uint64_t last_delivered_ = 0;
  int open_faults_ = 0;  // last end_slot's active_faults (defect gating)
  // Defect state.
  std::uint64_t defect_counter_ = 0;
  std::uint64_t credit_leak_ = 0;
  bool finished_ = false;
  std::vector<std::string> log_;
};

}  // namespace osmosis::chaos
