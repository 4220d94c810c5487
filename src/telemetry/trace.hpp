#pragma once
// Cell-lifecycle tracing for the §VI.A management system's "extracting
// performance values" function. A CellTrace samples one in N cells and
// records a timestamp for each lifecycle stage (VOQ enqueue, request
// issued, grant received, crossbar transmit, egress delivery) plus
// flow-control-hold and retransmit event counts. Completed spans land in
// a fixed-capacity ring buffer (oldest overwritten) so a long run keeps
// the most recent evidence without unbounded memory.
//
// Hot-path discipline: an unsampled cell costs one counter increment and
// a branch; a sampled cell writes into a pre-allocated slot pool (free
// list, no per-cell allocation in steady state). If the pool is
// exhausted, new traces are dropped and counted, never blocked.

#include <cstdint>
#include <vector>

#include "src/ckpt/archive.hpp"

namespace osmosis::telemetry {

/// Lifecycle stages of a cell crossing a switch or fabric, in order.
enum class Stage : std::uint8_t {
  kEnqueue = 0,   // entered the ingress VOQ / host source queue
  kRequest = 1,   // request reached the (first-stage) scheduler
  kGrant = 2,     // (first) grant received for this cell
  kTransmit = 3,  // (last) crossbar transfer completed
  kDeliver = 4,   // left the egress line toward the host
};

inline constexpr int kStageCount = 5;

/// Human-readable stage name ("enqueue", "request", ...).
const char* stage_name(Stage s);

/// One traced cell's lifecycle record. Timestamps are in whatever time
/// unit the owning simulator uses (cell cycles or nanoseconds).
struct CellSpan {
  std::uint64_t trace_seq = 0;  // monotonic index among sampled cells
  int src = -1;
  int dst = -1;
  double t[kStageCount] = {0, 0, 0, 0, 0};
  std::uint8_t stamped = 0;  // bit i set once stage i has a timestamp
  std::uint32_t fc_hold_cycles = 0;  // cycles held back by flow control
  std::uint32_t retransmits = 0;     // link-level retransmit events

  bool has(Stage s) const {
    return (stamped >> static_cast<int>(s)) & 1;
  }
  double at(Stage s) const { return t[static_cast<int>(s)]; }

  // The per-stage latency decomposition. By construction the three
  // stage terms telescope: their sum is exactly end_to_end().
  double request_to_grant() const { return at(Stage::kGrant) - at(Stage::kEnqueue); }
  double grant_to_transmit() const { return at(Stage::kTransmit) - at(Stage::kGrant); }
  double transmit_to_deliver() const { return at(Stage::kDeliver) - at(Stage::kTransmit); }
  double end_to_end() const { return at(Stage::kDeliver) - at(Stage::kEnqueue); }

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, trace_seq);
    ckpt::field(a, src);
    ckpt::field(a, dst);
    for (double& ts : t) ckpt::field(a, ts);
    ckpt::field(a, stamped);
    ckpt::field(a, fc_hold_cycles);
    ckpt::field(a, retransmits);
  }
};

/// Fixed-capacity ring of completed spans; push overwrites the oldest.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void push(const CellSpan& s);

  std::size_t capacity() const { return buf_.size(); }
  /// Spans currently retained (<= capacity).
  std::size_t size() const;
  /// Spans ever pushed (>= size once wrapped).
  std::uint64_t total_pushed() const { return pushed_; }
  /// i = 0 is the oldest retained span, size()-1 the newest.
  const CellSpan& at(std::size_t i) const;

  /// The buffer is sized at construction (ring capacity is config);
  /// load verifies the saved ring matches.
  template <class Ar>
  void io_state(Ar& a) {
    std::uint64_t cap = buf_.size();
    ckpt::field(a, cap);
    if constexpr (Ar::kLoading) {
      if (cap != buf_.size())
        throw ckpt::Error("trace ring capacity mismatch in checkpoint");
    }
    for (auto& span : buf_) ckpt::field(a, span);
    std::uint64_t head = head_;
    ckpt::field(a, head);
    if constexpr (Ar::kLoading) {
      if (head >= buf_.size() && !(head == 0 && buf_.empty()))
        throw ckpt::Error("trace ring head out of range in checkpoint");
      head_ = static_cast<std::size_t>(head);
    }
    ckpt::field(a, pushed_);
  }

 private:
  std::vector<CellSpan> buf_;
  std::size_t head_ = 0;  // next write position
  std::uint64_t pushed_ = 0;
};

/// Sampling span recorder. begin() decides (deterministically, via a
/// cell counter) whether this cell is traced and returns a handle; all
/// other calls are no-ops for handle < 0, so call sites need no guards.
class CellTrace {
 public:
  CellTrace(std::size_t ring_capacity, std::uint32_t sample_every,
            std::size_t max_open_spans = 65536);

  /// Considers one cell for tracing; stamps Stage::kEnqueue at `when`.
  /// Returns a handle (>= 0) if sampled, -1 otherwise.
  std::int32_t begin(int src, int dst, double when);

  /// Stamps (or re-stamps) a stage timestamp.
  void mark(std::int32_t handle, Stage s, double when);
  /// Stamps a stage only if it has not been stamped yet (multi-hop
  /// fabrics: the *first* grant, not the last).
  void mark_first(std::int32_t handle, Stage s, double when);

  void fc_hold(std::int32_t handle, std::uint32_t cycles = 1);
  void retransmit(std::int32_t handle);

  /// Completes the span: stamps Stage::kDeliver at `when`, pushes it to
  /// the ring, frees the slot, and returns a copy of the finished span.
  /// Must not be called with handle < 0 (callers guard on the handle).
  CellSpan end(std::int32_t handle, double when);

  const TraceRing& ring() const { return ring_; }
  std::uint32_t sample_every() const { return sample_every_; }
  std::uint64_t cells_seen() const { return seen_; }
  std::uint64_t cells_sampled() const { return sampled_; }
  std::uint64_t cells_dropped() const { return dropped_; }

  /// In-flight spans are persisted with their pool slots and free list
  /// intact, so trace handles stored inside queued cells stay valid
  /// across a restore.
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, seen_);
    ckpt::field(a, sampled_);
    ckpt::field(a, dropped_);
    ckpt::field(a, ring_);
    ckpt::field(a, open_);
    ckpt::field(a, free_);
    if constexpr (Ar::kLoading) {
      if (free_.size() > open_.size())
        throw ckpt::Error("trace pool free list inconsistent in checkpoint");
      for (std::int32_t idx : free_)
        if (idx < 0 || static_cast<std::size_t>(idx) >= open_.size())
          throw ckpt::Error("trace pool free index out of range");
    }
  }

 private:
  std::uint32_t sample_every_;
  std::size_t max_open_;
  std::uint64_t seen_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t dropped_ = 0;
  TraceRing ring_;
  std::vector<CellSpan> open_;       // slot pool for in-flight spans
  std::vector<std::int32_t> free_;   // free slot indices
};

}  // namespace osmosis::telemetry
