#pragma once
// The per-flow sequence ledger (DESIGN.md §18). It issues every cell's
// flow sequence number and audits every delivery against it: the
// Table 1 contract that cells arrive exactly once and in order per
// input-output pair. Each flow is tracked once, for three readers:
//
//  * the sender, which takes sequence 0, 1, 2, ... per flow;
//  * the order view: a cell is out of order iff a higher sequence of
//    its flow was delivered before it;
//  * the exactly-once audit: duplicates, gaps and cells never delivered.
//
// A dense flow id gets one 8-byte entry, a u32 send count and a u32
// next-expected sequence side by side, so a send and an in-order
// delivery each touch one cache line. A flow leaves the dense path the
// first time it sees a duplicate, a gap, a late cell, or a delivery of
// a sequence never sent; from then on a side table keeps its full
// state. Flow ids past the preset range live in the side table too.
// Global counters plus the side table answer report() without
// scanning the dense array.
//
// Checkpoints keep the three wire shapes the ledger replaced, so
// osmosis.ckpt.v1 is unchanged: flow_seq (one u64 send count per dense
// flow), the order map keyed (src, dst') with its two counters, and the
// exactly-once map in flow order. Load them in that order; the
// exactly-once load cross-checks all three and throws ckpt::Error when
// they disagree or a value does not fit 32 bits.

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/ckpt/archive.hpp"

namespace osmosis::sim {

class FlowLedger {
 public:
  /// Cells one flow may send. Sequences 0 .. kMaxCells - 1 fit the u32
  /// entry, and so does every next-expected value up to kMaxCells.
  static constexpr std::uint64_t kMaxCells = 0xFFFF'FFFFULL;

  /// `flows` dense flow ids 0 .. flows - 1. The order view keys flow f
  /// as (f / width, f % width): width is the number of destination
  /// streams per source.
  explicit FlowLedger(std::size_t flows = 0, std::size_t width = 1);

  /// Issues the next sequence number of `flow`. Dies (OSMOSIS_REQUIRE)
  /// past kMaxCells cells, naming the flow.
  std::uint64_t send(std::uint64_t flow) {
    if (flow < entries_.size()) {
      Entry& e = entries_[flow];
      if (e.sent < kMaxCells) {
        ++sent_;
        return e.sent++;
      }
    }
    return send_side(flow);
  }

  /// Records the delivery of `seq` on `flow`. Returns true when the cell
  /// is out of order: a higher sequence of the flow arrived before it.
  bool deliver(std::uint64_t flow, std::uint64_t seq) {
    if (flow < entries_.size()) {
      Entry& e = entries_[flow];
      if (seq == e.next && seq < e.sent) {
        ++e.next;
        ++delivered_;
        return false;
      }
    }
    return deliver_side(flow, seq);
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t out_of_order() const { return out_of_order_; }
  double reorder_fraction() const {
    return delivered_ ? static_cast<double>(out_of_order_) /
                            static_cast<double>(delivered_)
                      : 0.0;
  }
  /// Flows in the side table (every flow past the preset range, and
  /// every preset flow that saw a duplicate, gap, late or unsent cell).
  std::size_t side_flows() const { return side_.size(); }

  struct Report {
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t duplicates = 0;  // seq seen again after delivery
    std::uint64_t reordered = 0;   // seq arrived ahead of an earlier gap
    std::uint64_t missing = 0;     // offered but never delivered

    /// The Table 1 verdict: every offered cell delivered exactly once,
    /// in per-flow order, none lost.
    bool exactly_once_in_order() const {
      return duplicates == 0 && reordered == 0 && missing == 0 &&
             delivered == offered;
    }
  };
  Report report() const;

  // ---- osmosis.ckpt.v1 views ------------------------------------------
  /// vector<u64>: each dense flow's send count.
  template <class Ar>
  void io_flow_seq(Ar& a) {
    if constexpr (Ar::kLoading)
      load_flow_seq(a);
    else
      save_flow_seq(a);
  }
  /// map<(int src, int dst'), u64 highest sequence delivered>, then the
  /// u64 out-of-order and delivery counts.
  template <class Ar>
  void io_order(Ar& a) {
    if constexpr (Ar::kLoading)
      load_order(a);
    else
      save_order(a);
  }
  /// A u64 count, then per flow touched, in id order: the u64 flow id
  /// and (offered, delivered, next expected, duplicates, reordered).
  template <class Ar>
  void io_exactly_once(Ar& a) {
    if constexpr (Ar::kLoading)
      load_exactly_once(a);
    else
      save_exactly_once(a);
  }

 private:
  struct Entry {
    std::uint32_t sent = 0;
    std::uint32_t next = 0;  // kSideMark while the flow is in side_
  };
  // No dense delivery can match it: it would need seq < sent <= kMaxCells.
  static constexpr std::uint32_t kSideMark = 0xFFFF'FFFFu;

  struct Side {
    std::uint64_t next = 0;  // next expected: highest delivered + 1
    std::uint64_t delivered = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reordered = 0;
    std::uint64_t sent = 0;  // flows past the preset range only
  };

  // One flow's exactly-once record as the wire holds it.
  struct FlowState {
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t next_expected = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reordered = 0;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, offered);
      ckpt::field(a, delivered);
      ckpt::field(a, next_expected);
      ckpt::field(a, duplicates);
      ckpt::field(a, reordered);
    }
  };
  using OrderKey = std::pair<int, int>;

  std::uint64_t send_side(std::uint64_t flow);
  bool deliver_side(std::uint64_t flow, std::uint64_t seq);
  Side& side_entry(std::uint64_t flow);
  OrderKey order_key(std::uint64_t flow) const;
  // Calls fn(flow, FlowState) for every flow sent or delivered, in id
  // order.
  template <class Fn>
  void for_each_flow(Fn&& fn) const;

  void save_flow_seq(ckpt::Sink& a) const;
  void load_flow_seq(ckpt::Source& a);
  void save_order(ckpt::Sink& a) const;
  void load_order(ckpt::Source& a);
  void save_exactly_once(ckpt::Sink& a) const;
  void load_exactly_once(ckpt::Source& a);

  std::vector<Entry> entries_;
  std::uint64_t width_ = 1;
  std::map<std::uint64_t, Side> side_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t out_of_order_ = 0;
  // The order view as load_order read it, until load_exactly_once has
  // the state to check it against.
  std::vector<std::pair<OrderKey, std::uint64_t>> staged_order_;
  std::uint64_t staged_deliveries_ = 0;
  bool order_staged_ = false;
};

}  // namespace osmosis::sim
