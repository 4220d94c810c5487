#include "src/sw/switch_faults.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "src/util/log.hpp"

namespace osmosis::sw {

namespace {

std::string component(const char* prefix, int a, int b = -1) {
  std::ostringstream oss;
  oss << prefix << '/' << a;
  if (b >= 0) oss << '/' << b;
  return oss.str();
}

std::string link_name(int in) {
  return in < 0 ? std::string("link/all") : component("link", in);
}

// Unique recovery-tracker key per plan entry (two faults of the same
// kind on the same component at different times stay distinct).
std::string fault_key(const faults::FaultEvent& e) {
  std::ostringstream oss;
  oss << faults::to_string(e.kind) << '/' << e.a << '/' << e.b << '@'
      << e.at_slot;
  return oss.str();
}

mgmt::Status failed_if(bool begin) {
  return begin ? mgmt::Status::kFailed : mgmt::Status::kOk;
}

mgmt::Status degraded_if(bool begin) {
  return begin ? mgmt::Status::kDegraded : mgmt::Status::kOk;
}

}  // namespace

int broadcast_fibers(int ports) {
  int fibers = 1;
  while (fibers * fibers < ports) fibers <<= 1;
  return fibers;
}

SwitchFaults::SwitchFaults(int ports, int receivers,
                           const faults::FaultPlan& plan)
    : ports_(ports),
      receivers_(std::max(1, receivers)),
      fibers_(broadcast_fibers(ports)),
      may_strand_(plan.has_permanent_fault()) {
  OSMOSIS_REQUIRE(ports_ % fibers_ == 0,
                  "port count must factor into fibers * wavelengths");
  wavelengths_ = ports_ / fibers_;
  const auto n = static_cast<std::size_t>(ports_);
  rx_failed_.assign(n, std::vector<std::uint8_t>(
                           static_cast<std::size_t>(receivers_), 0));
  survivors_.resize(n);
  for (std::size_t out = 0; out < n; ++out) rebuild_survivors(out);
  dark_.assign(n, 0);
  block_depth_.assign(n, 0);

  // ---- component inventory (§VI.A health view) --------------------------
  for (int f = 0; f < fibers_; ++f) health_.declare(component("broadcast", f));
  for (int out = 0; out < ports_; ++out)
    for (int rx = 0; rx < receivers_; ++rx)
      health_.declare(component("module", out, rx));
  for (int in = 0; in < ports_; ++in) {
    health_.declare(component("adapter", in));
    health_.declare(link_name(in));
  }
  health_.declare(link_name(-1));
  health_.declare("controlpath");
  health_.declare("scheduler");

  // ---- mid-run fault plan -----------------------------------------------
  if (plan.empty()) return;
  for (const faults::FaultEvent& e : plan.events()) {
    switch (e.kind) {
      case faults::FaultKind::kModuleDeath:
        OSMOSIS_REQUIRE(e.a >= 0 && e.a < ports_ && e.b >= 0 &&
                            e.b < receivers_,
                        "fault plan: module (" << e.a << "," << e.b
                                               << ") out of range");
        break;
      case faults::FaultKind::kFiberCut:
        OSMOSIS_REQUIRE(e.a >= 0 && e.a < fibers_,
                        "fault plan: fiber " << e.a << " out of range");
        break;
      case faults::FaultKind::kBurstErrors:
        OSMOSIS_REQUIRE(e.a >= -1 && e.a < ports_,
                        "fault plan: burst-error link " << e.a
                                                        << " out of range");
        break;
      case faults::FaultKind::kGrantCorruption:
        break;
      case faults::FaultKind::kAdapterStall:
        OSMOSIS_REQUIRE(e.a >= 0 && e.a < ports_,
                        "fault plan: adapter " << e.a << " out of range");
        break;
      case faults::FaultKind::kPlaneFailure:
        OSMOSIS_REQUIRE(false,
                        "plane faults target the multi-plane / fabric "
                        "simulators, not the single-stage switch");
        break;
    }
  }
  injector_.emplace(plan);
}

void SwitchFaults::fail_at_start(
    const std::vector<std::pair<int, int>>& receivers,
    const std::vector<int>& fibers, Scheduler& sched,
    phy::BroadcastSelectCrossbar* optical) {
  may_strand_ = may_strand_ || !receivers.empty() || !fibers.empty();
  for (const auto& [out, rx] : receivers) {
    OSMOSIS_REQUIRE(out >= 0 && out < ports_ && rx >= 0 && rx < receivers_,
                    "failed receiver (" << out << "," << rx
                                        << ") out of range");
    rx_failed_[static_cast<std::size_t>(out)][static_cast<std::size_t>(rx)] =
        1;
    if (optical) optical->fail_module(out, rx);
    health_.report(component("module", out, rx), mgmt::Status::kFailed, 0,
                   "configured failed");
  }
  for (int out = 0; out < ports_; ++out) {
    rebuild_survivors(static_cast<std::size_t>(out));
    sched.set_output_capacity(out, static_cast<int>(survivors(out).size()));
  }
  for (const int f : fibers) {
    OSMOSIS_REQUIRE(f >= 0 && f < fibers_, "failed fiber out of range");
    if (optical) optical->fail_fiber(f);
    health_.report(component("broadcast", f), mgmt::Status::kFailed, 0,
                   "configured dark");
    for (int w = 0; w < wavelengths_; ++w) {
      const int in = f * wavelengths_ + w;
      dark_[static_cast<std::size_t>(in)] = 1;
      sched.block_input(in);
    }
  }
}

void SwitchFaults::rebuild_survivors(std::size_t out) {
  auto& alive = survivors_[out];
  alive.clear();
  for (std::size_t rx = 0; rx < rx_failed_[out].size(); ++rx)
    if (!rx_failed_[out][rx]) alive.push_back(static_cast<int>(rx));
}

void SwitchFaults::mask_input(int in, bool block, Scheduler& sched) {
  auto& depth = block_depth_[static_cast<std::size_t>(in)];
  if (block) {
    if (depth++ == 0) sched.block_input(in);
    return;
  }
  OSMOSIS_REQUIRE(depth > 0, "input mask underflow on input " << in);
  if (--depth == 0) sched.unblock_input(in);
}

void SwitchFaults::set_module_state(int out, int rx, bool failed,
                                    std::uint64_t t, Scheduler& sched,
                                    phy::BroadcastSelectCrossbar* optical) {
  auto& flag =
      rx_failed_[static_cast<std::size_t>(out)][static_cast<std::size_t>(rx)];
  if (static_cast<bool>(flag) == failed) return;  // e.g. statically failed
  flag = failed ? 1 : 0;
  rebuild_survivors(static_cast<std::size_t>(out));
  // The scheduler immediately stops matching onto the lost capacity
  // (in-flight pipelined matchings shrink too); on revival the next
  // matchings pick the restored receiver back up.
  sched.set_output_capacity(out, static_cast<int>(survivors(out).size()));
  if (optical) {
    if (failed)
      optical->fail_module(out, rx);
    else
      optical->repair_module(out, rx);
  }
  health_.report(component("module", out, rx), failed_if(failed), t,
                 failed ? "injected" : "repaired");
}

void SwitchFaults::apply(const std::vector<faults::FaultTransition>& due,
                         std::uint64_t t, std::uint64_t backlog,
                         Scheduler& sched,
                         phy::BroadcastSelectCrossbar* optical) {
  for (const faults::FaultTransition& tr : due) {
    const faults::FaultEvent& e = tr.event;
    const bool begin = tr.begin;
    if (begin) {
      ++injected_;
      recovery_.on_fault(t, fault_key(e), backlog);
    } else {
      ++repaired_;
      recovery_.on_repair(t, fault_key(e));
    }
    switch (e.kind) {
      case faults::FaultKind::kModuleDeath:
        set_module_state(e.a, e.b, begin, t, sched, optical);
        break;
      case faults::FaultKind::kFiberCut:
        if (optical) {
          if (begin)
            optical->fail_fiber(e.a);
          else
            optical->repair_fiber(e.a);
        }
        // Unlike a pre-run dark fiber (host offline), a mid-run cut
        // leaves the hosts generating: cells park in the VOQs and the
        // scheduler is masked until the splice.
        for (int w = 0; w < wavelengths_; ++w) {
          const int in = e.a * wavelengths_ + w;
          if (!dark(in)) mask_input(in, begin, sched);
        }
        health_.report(component("broadcast", e.a), failed_if(begin), t,
                       begin ? "fiber cut" : "spliced");
        break;
      case faults::FaultKind::kAdapterStall:
        mask_input(e.a, begin, sched);
        health_.report(component("adapter", e.a), degraded_if(begin), t,
                       begin ? "stalled" : "resumed");
        break;
      case faults::FaultKind::kBurstErrors:
        // The injector owns the per-cell error rolls; only the health
        // view changes here.
        health_.report(link_name(e.a), degraded_if(begin), t,
                       begin ? "burst errors" : "clean");
        break;
      case faults::FaultKind::kGrantCorruption:
        health_.report("controlpath", degraded_if(begin), t,
                       begin ? "grant corruption" : "clean");
        break;
      case faults::FaultKind::kPlaneFailure:
        break;  // rejected at construction
    }
  }
}

}  // namespace osmosis::sw
