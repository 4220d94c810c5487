// Tests for the VOQ ingress adapter: FIFO order, control-class strict
// priority, occupancy accounting; and for the FifoPool it stores its
// queues in, against a std::deque oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/sim/rng.hpp"
#include "src/sw/fifo_pool.hpp"
#include "src/sw/voq.hpp"

namespace osmosis::sw {
namespace {

Cell make_cell(int dst, std::uint64_t seq,
               sim::TrafficClass cls = sim::TrafficClass::kData) {
  Cell c;
  c.src = 0;
  c.dst = dst;
  c.seq = seq;
  c.cls = cls;
  return c;
}

TEST(VoqBank, FifoPerDestination) {
  VoqBank v(0, 4);
  v.push(make_cell(2, 0));
  v.push(make_cell(2, 1));
  v.push(make_cell(3, 0));
  EXPECT_EQ(v.pop(2).seq, 0u);
  EXPECT_EQ(v.pop(2).seq, 1u);
  EXPECT_EQ(v.pop(3).seq, 0u);
}

TEST(VoqBank, ControlClassHasStrictPriority) {
  // §IV: "a strict priority selection mechanism at the output of each
  // buffer" keeps control latency low.
  VoqBank v(0, 2);
  v.push(make_cell(1, 0, sim::TrafficClass::kData));
  v.push(make_cell(1, 1, sim::TrafficClass::kData));
  v.push(make_cell(1, 0, sim::TrafficClass::kControl));
  EXPECT_EQ(v.pop(1).cls, sim::TrafficClass::kControl);
  EXPECT_EQ(v.pop(1).seq, 0u);  // data resumes in order
  EXPECT_EQ(v.pop(1).seq, 1u);
}

TEST(VoqBank, OccupancyAccounting) {
  VoqBank v(1, 4);
  EXPECT_EQ(v.total_occupancy(), 0);
  v.push(make_cell(0, 0));
  v.push(make_cell(0, 1));
  v.push(make_cell(3, 0));
  EXPECT_EQ(v.occupancy(0), 2);
  EXPECT_EQ(v.occupancy(3), 1);
  EXPECT_EQ(v.occupancy(1), 0);
  EXPECT_EQ(v.total_occupancy(), 3);
  v.pop(0);
  EXPECT_EQ(v.total_occupancy(), 2);
}

TEST(VoqBank, TracksMaxDepth) {
  VoqBank v(0, 2);
  for (int i = 0; i < 5; ++i) v.push(make_cell(1, static_cast<unsigned>(i)));
  for (int i = 0; i < 5; ++i) v.pop(1);
  v.push(make_cell(1, 9));
  EXPECT_EQ(v.max_depth_seen(), 5);
}

TEST(VoqBank, PopEmptyDies) {
  VoqBank v(0, 2);
  EXPECT_DEATH(v.pop(0), "empty VOQ");
}

TEST(VoqBank, RejectsOutOfRangeDestination) {
  VoqBank v(0, 2);
  EXPECT_DEATH(v.push(make_cell(2, 0)), "out of range");
  EXPECT_DEATH(v.occupancy(-1), "out of range");
}

// ---- FifoPool ---------------------------------------------------------------

// Queue q's elements front to back, read by draining a copy.
std::vector<std::uint64_t> contents(FifoPool<std::uint64_t> pool,
                                    std::size_t q) {
  std::vector<std::uint64_t> out;
  while (!pool.empty(q)) out.push_back(pool.pop_front(q));
  return out;
}

TEST(FifoPool, MatchesDequeOracleOverRandomPushesAndPops) {
  // 10^5 seeded operations over 97 queues. Pushes outweigh pops while
  // the pool is small and pops win once it is large, so queues keep
  // emptying and refilling and popped slots keep getting reused.
  constexpr std::size_t kQueues = 97;
  FifoPool<std::uint64_t> pool(kQueues);
  std::vector<std::deque<std::uint64_t>> oracle(kQueues);
  sim::Rng rng(0xF1F0);
  std::uint64_t next_value = 0;
  std::size_t oracle_total = 0;
  std::size_t peak = 0;
  std::uint64_t refills = 0;  // pushes onto an empty queue
  std::uint64_t drains = 0;   // pops that empty a queue
  for (int op = 0; op < 100'000; ++op) {
    const std::size_t q = rng.uniform_int(kQueues);
    const double push_p = oracle_total < 300 ? 0.7 : 0.3;
    if (oracle[q].empty() || rng.bernoulli(push_p)) {
      refills += oracle[q].empty() ? 1 : 0;
      pool.push_back(q, next_value);
      oracle[q].push_back(next_value);
      ++next_value;
      ++oracle_total;
    } else {
      ASSERT_EQ(pool.pop_front(q), oracle[q].front());
      oracle[q].pop_front();
      --oracle_total;
      drains += oracle[q].empty() ? 1 : 0;
    }
    peak = std::max(peak, oracle_total);
    ASSERT_EQ(pool.size(q), oracle[q].size());
    ASSERT_EQ(pool.empty(q), oracle[q].empty());
    ASSERT_EQ(pool.total(), oracle_total);
    if (op % 10'000 == 0) {
      for (std::size_t k = 0; k < kQueues; ++k) {
        ASSERT_EQ(contents(pool, k),
                  std::vector<std::uint64_t>(oracle[k].begin(),
                                             oracle[k].end()));
      }
    }
  }
  EXPECT_GT(refills, 1'000u);
  EXPECT_GT(drains, 1'000u);
  // Every push after the first `peak` ones reused a popped slot.
  EXPECT_EQ(pool.capacity(), peak);
  EXPECT_LT(pool.capacity(), 1'000u);

  // A snapshot is the oracle's std::vector<std::deque> wire shape, and
  // loading it into a fresh pool restores every queue in order.
  ckpt::Sink pool_bytes;
  ckpt::field(pool_bytes, pool);
  ckpt::Sink oracle_bytes;
  ckpt::field(oracle_bytes, oracle);
  ASSERT_EQ(pool_bytes.bytes(), oracle_bytes.bytes());
  FifoPool<std::uint64_t> restored(kQueues);
  restored.push_back(3, 12345);  // loading replaces, never appends
  ckpt::Source src(pool_bytes.bytes());
  ckpt::field(src, restored);
  src.expect_end();
  EXPECT_EQ(restored.total(), oracle_total);
  for (std::size_t k = 0; k < kQueues; ++k) {
    ASSERT_EQ(contents(restored, k),
              std::vector<std::uint64_t>(oracle[k].begin(), oracle[k].end()));
  }
}

TEST(FifoPool, SnapshotForAnotherQueueCountIsRejected) {
  FifoPool<std::uint64_t> pool(4);
  pool.push_back(1, 7);
  ckpt::Sink bytes;
  ckpt::field(bytes, pool);
  FifoPool<std::uint64_t> other(5);
  ckpt::Source src(bytes.bytes());
  EXPECT_THROW(ckpt::field(src, other), ckpt::Error);
  // A count larger than the bytes left is rejected before any element.
  std::string lying = bytes.bytes();
  lying[sizeof(std::uint64_t)] = '\x7F';  // queue 0 claims 127 elements
  FifoPool<std::uint64_t> same(4);
  ckpt::Source bad(lying);
  EXPECT_THROW(ckpt::field(bad, same), ckpt::Error);
}

TEST(FifoPool, PopEmptyAndOutOfRangeDie) {
  FifoPool<std::uint64_t> pool(2);
  EXPECT_DEATH(pool.pop_front(0), "empty FIFO");
  EXPECT_DEATH(pool.push_back(2, 1), "out of range");
}

TEST(VoqBank, PriorityAndClassOrderHoldAcrossSlotReuse) {
  // Random pushes and pops over 8 destinations and both classes, with
  // the bank's slots recycled thousands of times: every pop must return
  // the oldest control cell for that destination, else the oldest data
  // cell.
  constexpr int kOutputs = 8;
  VoqBank v(0, kOutputs);
  std::vector<std::deque<Cell>> control(kOutputs);
  std::vector<std::deque<Cell>> data(kOutputs);
  sim::Rng rng(0x5107);
  std::uint64_t seq = 0;
  int queued = 0;
  for (int op = 0; op < 20'000; ++op) {
    const int dst = static_cast<int>(rng.uniform_int(kOutputs));
    const double push_p = queued < 40 ? 0.65 : 0.35;
    if (v.occupancy(dst) == 0 || rng.bernoulli(push_p)) {
      const auto cls = rng.bernoulli(0.3) ? sim::TrafficClass::kControl
                                          : sim::TrafficClass::kData;
      const Cell c = make_cell(dst, seq++, cls);
      v.push(c);
      (cls == sim::TrafficClass::kControl ? control : data)[dst].push_back(c);
      ++queued;
    } else {
      auto& want_q = control[dst].empty() ? data[dst] : control[dst];
      const Cell got = v.pop(dst);
      ASSERT_EQ(got.cls, want_q.front().cls);
      ASSERT_EQ(got.seq, want_q.front().seq);
      ASSERT_EQ(got.dst, dst);
      want_q.pop_front();
      --queued;
    }
    ASSERT_EQ(v.occupancy(dst),
              static_cast<int>(control[dst].size() + data[dst].size()));
    ASSERT_EQ(v.total_occupancy(), queued);
  }
}

}  // namespace
}  // namespace osmosis::sw
