#pragma once
// The single-stage switch data path (DESIGN.md §16): one VOQ bank per
// ingress adapter, the central scheduler, and one egress line per output
// that departs one cell per slot. SwitchSim, EventSwitchSim, every
// MultiPlaneSim plane and the CIOQ baseline (whose egress lines are its
// limited output buffers) own one core. Each engine keeps its own timing,
// request-time FIFOs, faults, crossbar, telemetry and retries, and
// places the core's checkpoint pieces in its own chunks, in the wire
// shapes those chunks have always carried (osmosis.ckpt.v1).

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/sw/cell.hpp"
#include "src/sw/scheduler.hpp"
#include "src/sw/voq.hpp"
#include "src/util/log.hpp"

namespace osmosis::sw {

class SwitchCore {
 public:
  /// A `ports`-port core whose scheduler is built from `sched` (its
  /// `ports` field is overridden).
  SwitchCore(int ports, SchedulerConfig sched);

  int ports() const { return sched_cfg_.ports; }
  Scheduler& scheduler() { return *sched_; }
  const Scheduler& scheduler() const { return *sched_; }
  const VoqBank& voq(int in) const {
    return voqs_[static_cast<std::size_t>(in)];
  }

  /// Replaces the scheduler card: a fresh scheduler from the same
  /// config, with no demand and with its arbiters reset.
  void replace_scheduler() { sched_ = make_scheduler(sched_cfg_); }

  /// Dense index of the (input, output) pair: in · ports + out.
  std::size_t pair_index(int in, int out) const {
    return static_cast<std::size_t>(in) * static_cast<std::size_t>(ports()) +
           static_cast<std::size_t>(out);
  }
  /// The ordering stream of `cell`: one per (input, output, class), as
  /// control has strict priority and may overtake data of the same pair.
  std::size_t flow(const Cell& cell) const {
    return pair_index(cell.src, cell.dst) * 2 +
           (cell.cls == sim::TrafficClass::kControl ? 0 : 1);
  }

  /// Queues `cell` in the VOQ of (cell.src, cell.dst).
  void enqueue(const Cell& cell) {
    voqs_[static_cast<std::size_t>(cell.src)].push(cell);
  }
  /// Takes the cell grant `g` names off the head of its VOQ.
  Cell take(const Grant& g) {
    Cell cell = voqs_[static_cast<std::size_t>(g.input)].pop(g.output);
    OSMOSIS_REQUIRE(cell.dst == g.output, "VOQ returned a mis-routed cell");
    return cell;
  }
  /// A transferred cell lands on its output's egress line.
  void land(const Cell& cell) {
    egress_[static_cast<std::size_t>(cell.dst)].push_back(cell);
  }
  /// Every non-empty egress line departs its head cell, in output order:
  /// one cell per output per call (line rate).
  template <class OnDeparture>
  void depart(OnDeparture&& on_departure) {
    for (auto& line : egress_) {
      if (line.empty()) continue;
      on_departure(line.front());
      line.pop_front();
    }
  }
  /// Moves every cell queued in `from` into the same VOQ here, FIFO per
  /// VOQ in (input, output) order, and files a request for each. Returns
  /// the number of cells moved.
  std::uint64_t absorb(SwitchCore& from);

  std::uint64_t voq_backlog() const;
  std::uint64_t egress_backlog() const;
  std::uint64_t backlog() const { return voq_backlog() + egress_backlog(); }
  /// Cells queued at the fullest ingress adapter.
  std::uint64_t max_bank_backlog() const;
  /// Largest single-VOQ depth seen so far.
  int max_voq_depth() const;
  /// Cells on output `out`'s egress line now, and on the deepest line.
  int egress_depth(int out) const {
    return static_cast<int>(egress_[static_cast<std::size_t>(out)].size());
  }
  int max_egress_depth() const;

  // ---- checkpoint pieces ------------------------------------------------
  /// The scheduler's state: a `*.sched` chunk.
  template <class Ar>
  void io_scheduler(Ar& a) {
    ckpt::save_or_load(a, *sched_);
  }
  /// A u64 bank count, then each VOQ bank: a `*.voq` chunk.
  template <class Ar>
  void io_voqs(Ar& a) {
    std::uint64_t n = voqs_.size();
    ckpt::field(a, n);
    if (n != voqs_.size())
      throw ckpt::Error("VOQ bank count mismatch in checkpoint");
    for (VoqBank& v : voqs_) ckpt::field(a, v);
  }
  /// The egress lines, shaped as a std::vector of std::deque<Cell>.
  template <class Ar>
  void io_egress(Ar& a) {
    ckpt::field(a, egress_);
    if (egress_.size() != voqs_.size())
      throw ckpt::Error("egress line count mismatch in checkpoint");
  }

 private:
  SchedulerConfig sched_cfg_;
  std::unique_ptr<Scheduler> sched_;
  std::vector<VoqBank> voqs_;             // per input
  std::vector<std::deque<Cell>> egress_;  // per output
};

}  // namespace osmosis::sw
