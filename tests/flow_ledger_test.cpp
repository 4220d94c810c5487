// Tests for sim::FlowLedger (DESIGN.md §18), the one per-flow sequence
// ledger behind every engine's out-of-order count and exactly-once
// verdict. The oracle is the pair of node-based ledgers it replaced,
// copied here verbatim: a std::map order detector and a hash-map
// exactly-once checker, plus a plain flow_seq vector. Seeded random
// streams with duplicates, gaps, late cells, deliveries of sequences
// never sent and flow ids past the preset range drive both; after every
// step the ledger's counters, report and saved bytes of all three wire
// views must equal the oracle's, also across save/load round trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/sim/flow_ledger.hpp"
#include "src/sim/rng.hpp"

namespace osmosis::sim {
namespace {

// ---- oracle: the replaced ledgers, verbatim ---------------------------------

/// Detects out-of-order delivery per (source, destination) flow using
/// monotonically increasing per-flow sequence numbers.
class ReorderDetector {
 public:
  /// Records delivery of sequence number `seq` on flow (src, dst).
  /// Returns true if this delivery was out of order.
  bool deliver(int src, int dst, std::uint64_t seq);

  std::uint64_t out_of_order() const { return out_of_order_; }
  std::uint64_t total() const { return total_; }
  double reorder_fraction() const {
    return total_ ? static_cast<double>(out_of_order_) /
                        static_cast<double>(total_)
                  : 0.0;
  }

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, last_seen_);
    ckpt::field(a, out_of_order_);
    ckpt::field(a, total_);
  }

 private:
  std::map<std::pair<int, int>, std::uint64_t> last_seen_;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t total_ = 0;
};

bool ReorderDetector::deliver(int src, int dst, std::uint64_t seq) {
  ++total_;
  auto [it, inserted] = last_seen_.try_emplace({src, dst}, seq);
  if (inserted) return false;
  const bool ooo = seq < it->second;
  if (ooo)
    ++out_of_order_;
  else
    it->second = seq;
  return ooo;
}

class ExactlyOnceChecker {
 public:
  /// A cell of `flow` was offered (entered the system). Sequence
  /// numbers per flow are implicit: 0, 1, 2, ... in offer order.
  void offered(std::uint64_t flow) { ++flows_[flow].offered; }

  /// A cell of `flow` with sequence `seq` left the system.
  void delivered(std::uint64_t flow, std::uint64_t seq);

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

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, flows_);
  }

 private:
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
  std::unordered_map<std::uint64_t, FlowState> flows_;
};

void ExactlyOnceChecker::delivered(std::uint64_t flow, std::uint64_t seq) {
  FlowState& f = flows_[flow];
  ++f.delivered;
  if (seq == f.next_expected) {
    ++f.next_expected;
  } else if (seq < f.next_expected) {
    ++f.duplicates;
  } else {
    // A gap: cells next_expected..seq-1 were skipped over. They may
    // still arrive (counting then as duplicates-of-position is wrong,
    // so gaps are charged as reorderings here and the gap cells as
    // missing only if they never show up — report() reconciles totals).
    ++f.reordered;
    f.next_expected = seq + 1;
  }
}

ExactlyOnceChecker::Report ExactlyOnceChecker::report() const {
  Report r;
  for (const auto& [flow, f] : flows_) {
    r.offered += f.offered;
    r.delivered += f.delivered;
    r.duplicates += f.duplicates;
    r.reordered += f.reordered;
    // Per flow, every offered cell not accounted for by a delivery is
    // missing. Duplicates over-count deliveries, so net them out.
    const std::uint64_t unique =
        f.delivered >= f.duplicates ? f.delivered - f.duplicates : 0;
    if (f.offered > unique) r.missing += f.offered - unique;
  }
  return r;
}

// ---- harness ----------------------------------------------------------------

// 4 sources x 6 destination streams preset; ids 24..39 lie past it.
constexpr std::size_t kWidth = 6;
constexpr std::size_t kPreset = 24;
constexpr std::uint64_t kFlowIds = 40;

// The engines' three flow structures, fed the way the engines fed them.
struct Oracle {
  std::vector<std::uint64_t> flow_seq = std::vector<std::uint64_t>(kPreset);
  ReorderDetector order;
  ExactlyOnceChecker exactly_once;
  std::uint64_t sent = 0;

  std::uint64_t send(std::uint64_t flow) {
    // Preset flows number their cells in flow_seq; the checker's
    // implicit numbering is the same count.
    const std::uint64_t seq = flow < kPreset ? flow_seq[flow]++ : 0;
    exactly_once.offered(flow);
    ++sent;
    return seq;
  }
  bool deliver(std::uint64_t flow, std::uint64_t seq) {
    exactly_once.delivered(flow, seq);
    return order.deliver(static_cast<int>(flow / kWidth),
                         static_cast<int>(flow % kWidth), seq);
  }
};

struct Views {
  std::string flow_seq;
  std::string order;
  std::string exactly_once;
  bool operator==(const Views&) const = default;
};

Views save(FlowLedger& l) {
  ckpt::Sink a, b, c;
  l.io_flow_seq(a);
  l.io_order(b);
  l.io_exactly_once(c);
  return {a.take(), b.take(), c.take()};
}

Views save(Oracle& o) {
  ckpt::Sink a, b, c;
  ckpt::field(a, o.flow_seq);
  ckpt::field(b, o.order);
  ckpt::field(c, o.exactly_once);
  return {a.take(), b.take(), c.take()};
}

// Loads the three views in the documented order.
void load(FlowLedger& l, const Views& v) {
  ckpt::Source a(v.flow_seq), b(v.order), c(v.exactly_once);
  l.io_flow_seq(a);
  l.io_order(b);
  l.io_exactly_once(c);
  a.expect_end();
  b.expect_end();
  c.expect_end();
}

void expect_same(FlowLedger& l, Oracle& o, const std::string& where) {
  const FlowLedger::Report got = l.report();
  const ExactlyOnceChecker::Report want = o.exactly_once.report();
  ASSERT_EQ(got.offered, want.offered) << where;
  ASSERT_EQ(got.delivered, want.delivered) << where;
  ASSERT_EQ(got.duplicates, want.duplicates) << where;
  ASSERT_EQ(got.reordered, want.reordered) << where;
  ASSERT_EQ(got.missing, want.missing) << where;
  ASSERT_EQ(got.exactly_once_in_order(), want.exactly_once_in_order())
      << where;
  ASSERT_EQ(l.out_of_order(), o.order.out_of_order()) << where;
  ASSERT_EQ(l.delivered(), o.order.total()) << where;
  ASSERT_EQ(l.sent(), o.sent) << where;
  ASSERT_EQ(l.reorder_fraction(), o.order.reorder_fraction()) << where;
  ASSERT_TRUE(save(l) == save(o)) << where << ": wire bytes differ";
}

// One random step: mostly sends and in-order deliveries, with every
// anomaly the ledger's side table exists for.
void step(Rng& rng, FlowLedger& l, Oracle& o,
          std::vector<std::uint64_t>& next_in_order,
          std::vector<std::uint64_t>& sent, bool anomalies) {
  const std::uint64_t flow =
      rng.bernoulli(0.85) ? rng.uniform_int(kPreset) : rng.uniform_int(kFlowIds);
  const double u = rng.uniform();
  if (u < 0.45) {
    // Past the preset range the oracle has no flow_seq slot; both
    // ledgers still number the flow 0, 1, 2, ...
    const std::uint64_t want = sent[flow]++;
    const std::uint64_t got = l.send(flow);
    const std::uint64_t oracle = o.send(flow);
    ASSERT_EQ(got, want);
    if (flow < kPreset) {
      ASSERT_EQ(oracle, want);
    }
    return;
  }
  std::uint64_t seq = next_in_order[flow];
  if (anomalies && u > 0.85) {
    const double kind = rng.uniform();
    if (kind < 0.3 && seq > 0) {
      seq = rng.uniform_int(seq);  // duplicate of a delivered cell
    } else if (kind < 0.7 && sent[flow] > 0) {
      seq = rng.uniform_int(sent[flow]);  // a gap or a late cell
    } else {
      seq = sent[flow] + rng.uniform_int(4);  // never sent
    }
  } else if (seq >= sent[flow]) {
    return;  // nothing sent that is still in flight
  }
  next_in_order[flow] = std::max(next_in_order[flow], seq + 1);
  ASSERT_EQ(l.deliver(flow, seq), o.deliver(flow, seq))
      << "flow " << flow << " seq " << seq;
}

TEST(FlowLedger, MatchesTheReplacedLedgersOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(0xF10E + seed);
    FlowLedger ledger(kPreset, kWidth);
    Oracle oracle;
    std::vector<std::uint64_t> next_in_order(kFlowIds), sent(kFlowIds);
    for (int i = 0; i < 600; ++i) {
      step(rng, ledger, oracle, next_in_order, sent, true);
      if (HasFatalFailure()) return;
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(i);
      expect_same(ledger, oracle, where);
      if (HasFatalFailure()) return;
      if (i % 97 == 96) {
        // Round trip: the ledger reloads its own bytes and the oracle's,
        // and the run continues on the reloaded copy.
        FlowLedger from_own(kPreset, kWidth);
        load(from_own, save(ledger));
        FlowLedger from_oracle(kPreset, kWidth);
        load(from_oracle, save(oracle));
        expect_same(from_oracle, oracle, where + " (oracle bytes)");
        if (HasFatalFailure()) return;
        ledger = from_own;
        expect_same(ledger, oracle, where + " (reloaded)");
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(ledger.side_flows(), 0u);
    EXPECT_GT(ledger.out_of_order(), 0u);
    EXPECT_FALSE(ledger.report().exactly_once_in_order());
  }
}

TEST(FlowLedger, InOrderStreamsStayDense) {
  Rng rng(0xC1EA);
  FlowLedger ledger(kPreset, kWidth);
  Oracle oracle;
  std::vector<std::uint64_t> next_in_order(kFlowIds), sent(kFlowIds);
  for (int i = 0; i < 2'000; ++i) {
    step(rng, ledger, oracle, next_in_order, sent, false);
    if (HasFatalFailure()) return;
  }
  expect_same(ledger, oracle, "end");
  // Only the flows past the preset range sit in the side table.
  std::size_t past = 0;
  for (std::uint64_t f = kPreset; f < kFlowIds; ++f) past += sent[f] != 0;
  EXPECT_EQ(ledger.side_flows(), past);
  EXPECT_EQ(ledger.out_of_order(), 0u);
}

// ---- the 32-bit cap ---------------------------------------------------------

// Wire bytes of a ledger with kPreset dense flows: flow 0 has sent
// `flow0` cells and flow `extra` (past the preset) has sent
// `extra_sent`, none delivered. `flow0_state` overrides flow 0's
// exactly-once record (offered, delivered, next expected, duplicates,
// reordered).
using EoRecord = std::array<std::uint64_t, 5>;
Views crafted(std::uint64_t flow0, std::uint64_t extra = 0,
              std::uint64_t extra_sent = 0, EoRecord flow0_state = {}) {
  std::vector<std::uint64_t> flow_seq(kPreset);
  flow_seq[0] = flow0;
  std::map<std::pair<int, int>, std::uint64_t> last_seen;
  std::uint64_t late = 0, total = 0;
  std::map<std::uint64_t, EoRecord> flows;
  if (flow0 != 0) flows[0] = {flow0, 0, 0, 0, 0};
  if (flow0_state[0] != 0) flows[0] = flow0_state;
  if (flow0_state[1] != 0) {
    // The order view that record's deliveries imply.
    last_seen[{0, 0}] = flow0_state[2] - 1;
    total = flow0_state[1];
  }
  if (extra_sent != 0) flows[extra] = {extra_sent, 0, 0, 0, 0};
  ckpt::Sink a, b, c;
  ckpt::field(a, flow_seq);
  ckpt::field(b, last_seen);
  ckpt::field(b, late);
  ckpt::field(b, total);
  ckpt::field(c, flows);
  return {a.take(), b.take(), c.take()};
}

TEST(FlowLedger, LoadsTheLastSequenceAndThrowsPastIt) {
  FlowLedger at_cap(kPreset, kWidth);
  load(at_cap, crafted(FlowLedger::kMaxCells));
  EXPECT_EQ(at_cap.sent(), FlowLedger::kMaxCells);
  EXPECT_EQ(at_cap.report().missing, FlowLedger::kMaxCells);
  EXPECT_EQ(at_cap.send(1), 0u);  // other flows are unaffected

  // flow_seq rejects 2^32 on its own, before the other views load.
  const Views too_many = crafted(FlowLedger::kMaxCells + 1);
  FlowLedger past(kPreset, kWidth);
  ckpt::Source past_seq(too_many.flow_seq);
  EXPECT_THROW(past.io_flow_seq(past_seq), ckpt::Error);
  // The same cap holds for a flow past the preset range, whose count
  // only the exactly-once view carries.
  FlowLedger side(kPreset, kWidth);
  load(side, crafted(0, 30, FlowLedger::kMaxCells));
  EXPECT_EQ(side.side_flows(), 1u);
  FlowLedger side_past(kPreset, kWidth);
  EXPECT_THROW(load(side_past, crafted(0, 30, FlowLedger::kMaxCells + 1)),
               ckpt::Error);
}

TEST(FlowLedgerDeathTest, SendPastTheCapNamesTheFlow) {
  FlowLedger dense(kPreset, kWidth);
  load(dense, crafted(FlowLedger::kMaxCells));
  EXPECT_DEATH(dense.send(0), "flow 0 has already sent 4294967295 cells");
  FlowLedger side(kPreset, kWidth);
  load(side, crafted(0, 30, FlowLedger::kMaxCells));
  EXPECT_DEATH(side.send(30), "flow 30 has already sent 4294967295 cells");
}

TEST(FlowLedger, InconsistentViewsThrow) {
  Rng rng(0xBAD);
  FlowLedger ledger(kPreset, kWidth);
  Oracle oracle;
  std::vector<std::uint64_t> next_in_order(kFlowIds), sent(kFlowIds);
  for (int i = 0; i < 300; ++i) {
    step(rng, ledger, oracle, next_in_order, sent, true);
    if (HasFatalFailure()) return;
  }
  const Views good = save(ledger);
  {
    FlowLedger fresh(kPreset, kWidth);
    EXPECT_NO_THROW(load(fresh, good));
  }
  // flow_seq from one state, the other views from a later one.
  Views stale = good;
  FlowLedger later = ledger;
  later.send(3);
  stale.exactly_once = save(later).exactly_once;
  stale.order = save(later).order;
  FlowLedger a(kPreset, kWidth);
  EXPECT_THROW(load(a, stale), ckpt::Error);
  // An order view that lost its counters' agreement with the deliveries.
  FlowLedger delivered_more = ledger;
  for (std::uint64_t f = 0; f < kPreset; ++f) delivered_more.deliver(f, 0);
  Views mixed = good;
  mixed.order = save(delivered_more).order;
  FlowLedger b(kPreset, kWidth);
  EXPECT_THROW(load(b, mixed), ckpt::Error);
  // flow_seq counts cells on a flow the exactly-once view never saw.
  Views unseen = crafted(3);
  unseen.exactly_once = crafted(0).exactly_once;
  FlowLedger lost(kPreset, kWidth);
  EXPECT_THROW(load(lost, unseen), ckpt::Error);
  // A snapshot sized for another machine.
  FlowLedger c(kPreset + 1, kWidth);
  EXPECT_THROW(load(c, good), ckpt::Error);
  // Exactly-once records no delivery sequence can produce: next moved
  // without a delivery, and more duplicates than deliveries.
  for (const EoRecord& r : {EoRecord{3, 0, 2, 0, 0}, EoRecord{3, 1, 1, 2, 0}}) {
    FlowLedger e(kPreset, kWidth);
    EXPECT_THROW(load(e, crafted(3, 0, 0, r)), ckpt::Error);
  }
  // Exactly-once records out of flow id order (two flows, each sent
  // one cell, written 5 then 3).
  Views swapped = crafted(0);
  {
    std::vector<std::uint64_t> flow_seq(kPreset);
    flow_seq[3] = flow_seq[5] = 1;
    std::uint64_t n = 2, five = 5, three = 3;
    EoRecord one{1, 0, 0, 0, 0};
    ckpt::Sink a, c;
    ckpt::field(a, flow_seq);
    ckpt::field(c, n);
    ckpt::field(c, five);
    ckpt::field(c, one);
    ckpt::field(c, three);
    ckpt::field(c, one);
    swapped.flow_seq = a.take();
    swapped.exactly_once = c.take();
  }
  FlowLedger f(kPreset, kWidth);
  EXPECT_THROW(load(f, swapped), ckpt::Error);
  // The exactly-once view needs the order view loaded first, even when
  // the views agree.
  const Views consistent = crafted(3);
  FlowLedger d(kPreset, kWidth);
  ckpt::Source seq(consistent.flow_seq), once(consistent.exactly_once);
  d.io_flow_seq(seq);
  EXPECT_THROW(d.io_exactly_once(once), ckpt::Error);
}

}  // namespace
}  // namespace osmosis::sim
