#include "src/sim/flow_ledger.hpp"

#include <climits>
#include <string>

#include "src/util/log.hpp"

namespace osmosis::sim {

namespace {

[[noreturn]] void corrupt(const std::string& what) {
  throw ckpt::Error("flow ledger checkpoint: " + what);
}

}  // namespace

FlowLedger::FlowLedger(std::size_t flows, std::size_t width)
    : entries_(flows), width_(width) {
  OSMOSIS_REQUIRE(width >= 1 && width - 1 <= INT_MAX,
                  "flow ledger order-view width " << width
                                                  << " does not fit an int");
  OSMOSIS_REQUIRE(flows == 0 || (flows - 1) / width <= INT_MAX,
                  "flow ledger: " << flows << " flows of width " << width
                                  << " do not fit the (src, dst') key");
}

FlowLedger::Side& FlowLedger::side_entry(std::uint64_t flow) {
  const auto [it, inserted] = side_.try_emplace(flow);
  if (!inserted) return it->second;
  if (flow < entries_.size()) {
    // Leaving the dense path: every delivery so far was in order.
    Entry& e = entries_[flow];
    it->second.next = e.next;
    it->second.delivered = e.next;
    e.next = kSideMark;
  } else {
    OSMOSIS_REQUIRE(flow / width_ <= INT_MAX,
                    "flow id " << flow
                               << " is past the order view's (src, dst') "
                                  "key range");
  }
  return it->second;
}

std::uint64_t FlowLedger::send_side(std::uint64_t flow) {
  // A dense flow gets here only once its u32 count is used up; a flow
  // past the preset range counts in the side table, under the same cap.
  Side* s = flow < entries_.size() ? nullptr : &side_entry(flow);
  const std::uint64_t sent = s ? s->sent : entries_[flow].sent;
  OSMOSIS_REQUIRE(s != nullptr && sent < kMaxCells,
                  "flow " << flow << " has already sent " << sent
                          << " cells, the most a 32-bit flow sequence "
                             "can number");
  ++sent_;
  return s->sent++;
}

bool FlowLedger::deliver_side(std::uint64_t flow, std::uint64_t seq) {
  OSMOSIS_REQUIRE(seq < kMaxCells, "flow " << flow << " delivered sequence "
                                           << seq
                                           << ", which no send can issue");
  Side& s = side_entry(flow);
  ++delivered_;
  // Order view: late iff below the highest sequence delivered so far,
  // which is next - 1 once the flow has a delivery.
  const bool late = s.delivered > 0 && seq + 1 < s.next;
  ++s.delivered;
  if (seq == s.next) {
    ++s.next;
  } else if (seq < s.next) {
    ++s.duplicates;
  } else {
    // A gap: cells next..seq-1 were skipped over. They may still arrive
    // (counting then as duplicates-of-position is wrong, so gaps are
    // charged as reorderings here and the gap cells as missing only if
    // they never show up — report() reconciles totals).
    ++s.reordered;
    s.next = seq + 1;
  }
  if (late) ++out_of_order_;
  return late;
}

FlowLedger::Report FlowLedger::report() const {
  Report r;
  r.offered = sent_;
  r.delivered = delivered_;
  // A dense flow has next <= sent and one delivery per step of next, so
  // the dense flows together miss (their sends) - (their deliveries).
  std::uint64_t side_sent = 0;
  std::uint64_t side_delivered = 0;
  for (const auto& [flow, s] : side_) {
    const std::uint64_t sent =
        flow < entries_.size() ? entries_[flow].sent : s.sent;
    side_sent += sent;
    side_delivered += s.delivered;
    r.duplicates += s.duplicates;
    r.reordered += s.reordered;
    // Every sent cell not accounted for by a delivery is missing.
    // Duplicates over-count deliveries, so net them out.
    const std::uint64_t unique =
        s.delivered >= s.duplicates ? s.delivered - s.duplicates : 0;
    if (sent > unique) r.missing += sent - unique;
  }
  r.missing += (sent_ - side_sent) - (delivered_ - side_delivered);
  return r;
}

FlowLedger::OrderKey FlowLedger::order_key(std::uint64_t flow) const {
  return {static_cast<int>(flow / width_), static_cast<int>(flow % width_)};
}

template <class Fn>
void FlowLedger::for_each_flow(Fn&& fn) const {
  auto side = side_.begin();
  for (std::uint64_t f = 0; f < entries_.size(); ++f) {
    const Entry& e = entries_[f];
    if (side != side_.end() && side->first == f) {
      const Side& s = side->second;
      fn(f, FlowState{e.sent, s.delivered, s.next, s.duplicates, s.reordered});
      ++side;
    } else if (e.sent != 0) {
      fn(f, FlowState{e.sent, e.next, e.next, 0, 0});
    }
  }
  for (; side != side_.end(); ++side) {
    const Side& s = side->second;
    fn(side->first,
       FlowState{s.sent, s.delivered, s.next, s.duplicates, s.reordered});
  }
}

// ---- osmosis.ckpt.v1 views ------------------------------------------------

void FlowLedger::save_flow_seq(ckpt::Sink& a) const {
  std::uint64_t n = entries_.size();
  ckpt::field(a, n);
  for (const Entry& e : entries_) {
    std::uint64_t sent = e.sent;
    ckpt::field(a, sent);
  }
}

void FlowLedger::load_flow_seq(ckpt::Source& a) {
  std::uint64_t n = 0;
  ckpt::field(a, n);
  if (n != entries_.size())
    corrupt("flow_seq holds " + std::to_string(n) + " flows, the ledger " +
            std::to_string(entries_.size()));
  for (std::uint64_t f = 0; f < n; ++f) {
    std::uint64_t sent = 0;
    ckpt::field(a, sent);
    if (sent > kMaxCells)
      corrupt("flow " + std::to_string(f) + " sent " + std::to_string(sent) +
              " cells, more than a 32-bit sequence numbers");
    entries_[f] = Entry{static_cast<std::uint32_t>(sent), 0};
  }
  order_staged_ = false;
}

void FlowLedger::save_order(ckpt::Sink& a) const {
  std::uint64_t n = 0;
  for_each_flow([&](std::uint64_t, const FlowState& s) {
    n += s.delivered != 0;
  });
  ckpt::field(a, n);
  for_each_flow([&](std::uint64_t flow, const FlowState& s) {
    if (s.delivered == 0) return;
    OrderKey key = order_key(flow);
    std::uint64_t highest = s.next_expected - 1;
    ckpt::field(a, key);
    ckpt::field(a, highest);
  });
  std::uint64_t late = out_of_order_;
  std::uint64_t total = delivered_;
  ckpt::field(a, late);
  ckpt::field(a, total);
}

void FlowLedger::load_order(ckpt::Source& a) {
  const std::uint64_t n = ckpt::detail::load_count(a);
  staged_order_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::pair<OrderKey, std::uint64_t> e;
    ckpt::field(a, e);
    staged_order_.push_back(e);
  }
  ckpt::field(a, out_of_order_);
  ckpt::field(a, staged_deliveries_);
  order_staged_ = true;
}

void FlowLedger::save_exactly_once(ckpt::Sink& a) const {
  std::uint64_t n = 0;
  for_each_flow([&](std::uint64_t, const FlowState&) { ++n; });
  ckpt::field(a, n);
  for_each_flow([&](std::uint64_t flow, FlowState s) {
    ckpt::field(a, flow);
    ckpt::field(a, s);
  });
}

void FlowLedger::load_exactly_once(ckpt::Source& a) {
  if (!order_staged_)
    corrupt("the order view must load before the exactly-once view");
  const std::uint64_t n = ckpt::detail::load_count(a);
  side_.clear();
  for (Entry& e : entries_) e.next = 0;
  delivered_ = 0;
  std::uint64_t started = 0;  // dense flows the view says were sent on
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t flow = 0;
    FlowState s;
    ckpt::field(a, flow);
    ckpt::field(a, s);
    const auto bad = [flow](const char* what) {
      corrupt("exactly-once " + std::string(what) + " of flow " +
              std::to_string(flow));
    };
    if (i > 0 && flow <= prev) bad("view out of id order at the entry");
    prev = flow;
    if (s.offered > kMaxCells || s.next_expected > kMaxCells)
      bad("sequence does not fit 32 bits");
    // Each delivery steps next or counts one duplicate or one gap.
    if ((s.delivered == 0) != (s.next_expected == 0) ||
        s.duplicates > s.delivered ||
        s.reordered > s.delivered - s.duplicates)
      bad("state is unreachable");
    delivered_ += s.delivered;
    if (flow < entries_.size()) {
      Entry& e = entries_[flow];
      if (s.offered != e.sent) bad("count disagrees with flow_seq");
      started += s.offered != 0;
      if (s.duplicates == 0 && s.reordered == 0 &&
          s.delivered == s.next_expected && s.next_expected <= s.offered) {
        e.next = static_cast<std::uint32_t>(s.next_expected);
        continue;
      }
      e.next = kSideMark;
    } else if (flow / width_ > INT_MAX) {
      bad("id is past the (src, dst') key range");
    }
    side_.emplace_hint(side_.end(), flow,
                       Side{s.next_expected, s.delivered, s.duplicates,
                            s.reordered, flow < entries_.size() ? 0 : s.offered});
  }
  sent_ = 0;
  std::uint64_t sent_on = 0;  // dense flows flow_seq says were sent on
  for (const Entry& e : entries_) {
    sent_ += e.sent;
    sent_on += e.sent != 0;
  }
  if (sent_on != started)
    corrupt("flow_seq counts cells on a flow the exactly-once view lacks");
  for (auto it = side_.lower_bound(entries_.size()); it != side_.end(); ++it)
    sent_ += it->second.sent;

  // The order view must be what these deliveries imply.
  bool same = staged_deliveries_ == delivered_;
  std::size_t k = 0;
  for_each_flow([&](std::uint64_t flow, const FlowState& s) {
    if (s.delivered == 0 || !same) return;
    same = k < staged_order_.size() &&
           staged_order_[k] ==
               std::make_pair(order_key(flow), s.next_expected - 1);
    ++k;
  });
  if (!same || k != staged_order_.size())
    corrupt("order view disagrees with the exactly-once view");
  staged_order_.clear();
  order_staged_ = false;
}

}  // namespace osmosis::sim
