#pragma once
// Virtual Output Queuing ingress adapter (§III, [17]): one FIFO per
// destination output eliminates head-of-line blocking in the bufferless
// crossbar. Each VOQ is further split by traffic class: the paper's
// bimodal HPC traffic wants strict priority for short control packets at
// every buffer output (§IV), so pop() serves the control sub-queue
// first. Order within a class and flow is FIFO, preserving the Table 1
// in-order requirement.
//
// All 2 x outputs class queues of one adapter share a single FifoPool,
// so an empty VOQ costs 24 bytes of queue headers (DESIGN.md §16).

#include <cstddef>
#include <cstdint>

#include "src/ckpt/archive.hpp"
#include "src/sw/cell.hpp"
#include "src/sw/fifo_pool.hpp"

namespace osmosis::sw {

/// The VOQ bank of one ingress adapter.
class VoqBank {
 public:
  VoqBank(int input, int outputs);

  int input() const { return input_; }
  int outputs() const { return outputs_; }

  /// Enqueues a cell destined to cell.dst.
  void push(const Cell& cell);

  /// Dequeues the next cell for `dst` (control class first). The queue
  /// must be non-empty — the scheduler only grants against known
  /// occupancy, so popping empty indicates a bookkeeping bug.
  Cell pop(int dst);

  /// Cells queued for `dst` (all classes).
  int occupancy(int dst) const;

  /// Total cells across all VOQs of this adapter.
  int total_occupancy() const { return static_cast<int>(cells_.total()); }

  /// Largest single-VOQ depth seen so far (buffer-sizing studies).
  int max_depth_seen() const { return max_depth_; }

  /// Wire shape: a u64 destination count, then per destination its
  /// control queue and its data queue (each a u64 count and the cells,
  /// front first), then the total occupancy and the max depth.
  template <class Ar>
  void io_state(Ar& a) {
    std::uint64_t n = static_cast<std::uint64_t>(outputs_);
    if constexpr (Ar::kLoading) {
      n = ckpt::detail::load_count(a);
      if (n != static_cast<std::uint64_t>(outputs_))
        throw ckpt::Error("VoqBank queue count inconsistent in checkpoint");
      cells_.clear();
    } else {
      a.raw(&n, sizeof n);
    }
    for (std::size_t q = 0; q < cells_.queues(); ++q) cells_.io_queue(a, q);
    int total = total_occupancy();
    ckpt::field(a, total);
    ckpt::field(a, max_depth_);
    if constexpr (Ar::kLoading) {
      if (total != total_occupancy())
        throw ckpt::Error("VoqBank occupancy inconsistent in checkpoint");
    }
  }

 private:
  // Queue index of (dst, class): control at 2*dst, data at 2*dst + 1 —
  // the order the snapshot lists them in.
  static std::size_t queue_of(int dst, sim::TrafficClass cls) {
    return static_cast<std::size_t>(dst) * 2 +
           (cls == sim::TrafficClass::kControl ? 0 : 1);
  }

  int input_;
  int outputs_;
  FifoPool<Cell> cells_;
  int max_depth_ = 0;
};

}  // namespace osmosis::sw
