#include "src/chaos/monitor.hpp"

#include <sstream>

#include "src/telemetry/run_report.hpp"
#include "src/util/log.hpp"

namespace osmosis::chaos {

namespace {

// Retained violation messages (counting continues past the cap).
constexpr std::size_t kMaxViolationLog = 8;

}  // namespace

const char* to_string(Defect d) {
  switch (d) {
    case Defect::kNone:
      return "none";
    case Defect::kDropDeliveryDuringFault:
      return "drop_delivery_during_fault";
    case Defect::kDuplicateDeliveryDuringFault:
      return "duplicate_delivery_during_fault";
    case Defect::kLeakCreditDuringFault:
      return "leak_credit_during_fault";
  }
  return "unknown";
}

Defect defect_from_string(const std::string& name) {
  for (Defect d : {Defect::kNone, Defect::kDropDeliveryDuringFault,
                   Defect::kDuplicateDeliveryDuringFault,
                   Defect::kLeakCreditDuringFault}) {
    if (name == to_string(d)) return d;
  }
  OSMOSIS_REQUIRE(false, "unknown chaos defect name: " << name);
  return Defect::kNone;
}

bool InvariantMonitor::defect_fires(Defect kind) {
  if (cfg_.defect != kind) return false;
  if (open_faults_ <= 0) return false;  // only corrupt inside fault windows
  ++defect_counter_;
  return cfg_.defect_period > 0 && defect_counter_ % cfg_.defect_period == 0;
}

void InvariantMonitor::deliver_with_defect(std::uint64_t flow,
                                           std::uint64_t seq) {
  if (defect_fires(Defect::kDropDeliveryDuringFault)) return;
  ledger_.deliver(flow, seq);
  if (defect_fires(Defect::kDuplicateDeliveryDuringFault))
    ledger_.deliver(flow, seq);
}

void InvariantMonitor::violate(std::uint64_t slot, const std::string& what) {
  if (violations_ == 0) first_violation_slot_ = slot;
  ++violations_;
  if (log_.size() < kMaxViolationLog) {
    std::ostringstream os;
    os << "slot=" << slot << ' ' << what;
    log_.push_back(os.str());
  }
}

void InvariantMonitor::end_slot(const SlotState& s) {
  ++checks_;
  open_faults_ = s.active_faults;
  const std::uint64_t offered = ledger_.sent();
  const std::uint64_t delivered = ledger_.delivered();

  // Cell conservation: every offered cell is delivered or queued
  // somewhere in the machine.
  if (offered != delivered + s.queued) {
    std::ostringstream os;
    os << "conservation: offered=" << offered << " != delivered="
       << delivered << " + queued=" << s.queued;
    violate(s.slot, os.str());
  }

  // Liveness watchdog. Progress = a delivery since the last check, an
  // empty machine, an open fault window, or retries still maturing
  // toward their timeout; any of these re-arms the timer.
  if (delivered != last_delivered_ || s.queued == 0 || s.active_faults > 0 ||
      s.retries_pending > 0) {
    last_progress_slot_ = s.slot;
    last_delivered_ = delivered;
  } else if (s.slot - last_progress_slot_ >= cfg_.deadlock_slots) {
    std::ostringstream os;
    os << "deadlock: backlog=" << s.queued << " cells with no delivery for "
       << (s.slot - last_progress_slot_) << " slots and no active fault";
    violate(s.slot, os.str());
    last_progress_slot_ = s.slot;  // re-arm; report once per horizon
  }
}

void InvariantMonitor::check_generated(std::uint64_t slot,
                                       std::uint64_t generated) {
  if (generated == ledger_.sent() + shed_) return;
  std::ostringstream os;
  os << "conservation(source): generated=" << generated
     << " != offered=" << ledger_.sent() << " + shed=" << shed_;
  violate(slot, os.str());
}

void InvariantMonitor::check_occupancy(std::uint64_t slot, const char* what,
                                       std::uint64_t value,
                                       std::uint64_t cap) {
  if (cap == 0 || value <= cap) return;
  std::ostringstream os;
  os << "occupancy: " << what << "=" << value << " exceeds cap " << cap;
  violate(slot, os.str());
}

void InvariantMonitor::check_credits(std::uint64_t slot, std::uint64_t ledger,
                                     std::uint64_t pool_total,
                                     long long min_pool) {
  std::uint64_t reported = ledger;
  if (defect_fires(Defect::kLeakCreditDuringFault)) ++credit_leak_;
  reported -= credit_leak_ > reported ? reported : credit_leak_;
  if (min_pool < 0) {
    std::ostringstream os;
    os << "credit: pool went negative (" << min_pool << ")";
    violate(slot, os.str());
  }
  if (reported != pool_total) {
    std::ostringstream os;
    os << "credit: ledger=" << reported << " != pool=" << pool_total;
    violate(slot, os.str());
  }
}

void InvariantMonitor::finish(std::uint64_t slot,
                              std::uint64_t residual_backlog) {
  if (finished_) return;  // idempotent: run()/finalize() pairs may overlap
  finished_ = true;

  // Residual conservation: after the drain phase everything offered must
  // be delivered (or stranded behind a declared permanent fault).
  const std::uint64_t offered = ledger_.sent();
  const std::uint64_t delivered = ledger_.delivered();
  if (offered != delivered + residual_backlog) {
    std::ostringstream os;
    os << "conservation(final): offered=" << offered
       << " != delivered=" << delivered << " + residual=" << residual_backlog;
    violate(slot, os.str());
  }
  if (residual_backlog != 0 && expect_drain_ && !allow_stranded_) {
    std::ostringstream os;
    os << "liveness(final): " << residual_backlog
       << " cells stranded with no permanent fault declared";
    violate(slot, os.str());
  }

  const auto rep = ledger_.report();
  if (rep.duplicates != 0) {
    std::ostringstream os;
    os << "exactly_once: " << rep.duplicates << " duplicate deliveries";
    violate(slot, os.str());
  }
  if (rep.reordered != 0) {
    std::ostringstream os;
    os << "ordering: " << rep.reordered << " reordered deliveries";
    violate(slot, os.str());
  }
  if (rep.missing != 0 && expect_drain_ && !allow_stranded_) {
    std::ostringstream os;
    os << "exactly_once: " << rep.missing << " cells missing at end of run";
    violate(slot, os.str());
  }
}

void InvariantMonitor::to_report(telemetry::RunReport& r) const {
  if (checks_ == 0 && ledger_.sent() == 0) return;  // never engaged
  const auto rep = ledger_.report();
  r.invariants["checks"] = static_cast<double>(checks_);
  r.invariants["violations"] = static_cast<double>(violations_);
  r.invariants["offered"] = static_cast<double>(rep.offered);
  r.invariants["delivered"] = static_cast<double>(rep.delivered);
  r.invariants["dropped_declared"] = 0;  // no fault drops a cell
  if (shed_ != 0) r.invariants["shed"] = static_cast<double>(shed_);
  r.invariants["duplicates"] = static_cast<double>(rep.duplicates);
  r.invariants["reordered"] = static_cast<double>(rep.reordered);
  r.invariants["missing"] = static_cast<double>(rep.missing);
  if (violations_ != 0) {
    r.invariants["first_violation_slot"] =
        static_cast<double>(first_violation_slot_);
  }
  r.invariant_violations = log_;
}

}  // namespace osmosis::chaos
