// Tests for the central schedulers: matching validity properties across
// all kinds, FLPPR's single-cycle grant latency vs the pipelined prior
// art (Fig. 6), throughput, flow-control blocking, fairness.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/ckpt.hpp"
#include "src/sim/rng.hpp"
#include "src/sw/scheduler.hpp"

namespace osmosis::sw {
namespace {

struct KindParam {
  SchedulerKind kind;
  const char* name;
  int receivers;
  int ports = 16;
};

// gtest puts GetParam() into the listed test names; without this it dumps
// the struct's raw bytes (a pointer and padding), which vary per build.
void PrintTo(const KindParam& p, std::ostream* os) {
  *os << p.name << ", ports=" << p.ports;
}

class MatchingValidityTest : public ::testing::TestWithParam<KindParam> {};

TEST_P(MatchingValidityTest, GrantsFormValidMatching) {
  // Property: over random demand, every tick's grant set matches each
  // input at most once and each (output, receiver) at most once, and
  // never grants demand that does not exist.
  const auto param = GetParam();
  SchedulerConfig cfg;
  cfg.kind = param.kind;
  cfg.ports = param.ports;
  cfg.receivers = param.receivers;
  cfg.seed = 99;
  auto sched = make_scheduler(cfg);

  sim::Rng rng(1234);
  std::map<std::pair<int, int>, long> owed;  // requests minus grants
  for (int t = 0; t < 2'000; ++t) {
    for (int in = 0; in < cfg.ports; ++in) {
      if (rng.bernoulli(0.4)) {
        const int out = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(cfg.ports)));
        sched->request(in, out);
        ++owed[{in, out}];
      }
    }
    const auto grants = sched->tick();
    std::set<int> inputs;
    std::set<std::pair<int, int>> slots;
    for (const auto& g : grants) {
      ASSERT_TRUE(inputs.insert(g.input).second)
          << "input " << g.input << " matched twice in one cycle";
      ASSERT_TRUE(slots.insert({g.output, g.receiver}).second)
          << "(output, receiver) reused";
      ASSERT_GE(g.receiver, 0);
      ASSERT_LT(g.receiver, param.receivers);
      const long remaining = --owed[std::make_pair(g.input, g.output)];
      ASSERT_GE(remaining, 0)
          << "granted more cells than requested for (" << g.input << ","
          << g.output << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MatchingValidityTest,
    ::testing::Values(KindParam{SchedulerKind::kIslip, "islip", 1},
                      KindParam{SchedulerKind::kIslip, "islip_dual", 2},
                      KindParam{SchedulerKind::kPim, "pim", 1},
                      KindParam{SchedulerKind::kPipelinedIslip, "pipe", 1},
                      KindParam{SchedulerKind::kPipelinedIslip, "pipe_dual",
                                2},
                      KindParam{SchedulerKind::kFlppr, "flppr", 1},
                      KindParam{SchedulerKind::kFlppr, "flppr_dual", 2},
                      KindParam{SchedulerKind::kTdm, "tdm", 1},
                      KindParam{SchedulerKind::kWfa, "wfa", 1},
                      KindParam{SchedulerKind::kWfa, "wfa_dual", 2}),
    [](const auto& info) { return std::string(info.param.name); });

// 130 ports: three-word PortSets, so the multi-word scans and masks run.
INSTANTIATE_TEST_SUITE_P(
    MultiWord, MatchingValidityTest,
    ::testing::Values(KindParam{SchedulerKind::kIslip, "islip", 1, 130},
                      KindParam{SchedulerKind::kIslip, "islip_dual", 2, 130},
                      KindParam{SchedulerKind::kPim, "pim", 1, 130},
                      KindParam{SchedulerKind::kPipelinedIslip, "pipe", 1,
                                130},
                      KindParam{SchedulerKind::kPipelinedIslip, "pipe_dual",
                                2, 130},
                      KindParam{SchedulerKind::kFlppr, "flppr", 1, 130},
                      KindParam{SchedulerKind::kFlppr, "flppr_dual", 2, 130},
                      KindParam{SchedulerKind::kTdm, "tdm", 1, 130},
                      KindParam{SchedulerKind::kWfa, "wfa", 1, 130},
                      KindParam{SchedulerKind::kWfa, "wfa_dual", 2, 130}),
    [](const auto& info) { return std::string(info.param.name); });

/// CRC32 of every grant a scheduler issues over `ticks` ticks of seeded
/// random demand, with periodic output blocking, capacity degradation
/// and input masking. Each tick appends its grant count and then each
/// grant's (input, output, receiver) as 16-bit little-endian values.
std::uint32_t grant_sequence_crc(SchedulerKind kind, int receivers,
                                 int ports, int ticks) {
  SchedulerConfig cfg;
  cfg.kind = kind;
  cfg.ports = ports;
  cfg.receivers = receivers;
  cfg.seed = 0x51A7;
  auto sched = make_scheduler(cfg);
  sim::Rng rng(0xC0FFEE + static_cast<std::uint64_t>(ports) * 3 +
               static_cast<std::uint64_t>(receivers));
  const auto port = [&] {
    return static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(ports)));
  };
  std::string bytes;
  const auto put = [&bytes](int v) {
    bytes.push_back(static_cast<char>(v & 0xFF));
    bytes.push_back(static_cast<char>((v >> 8) & 0xFF));
  };
  int blocked_out = 0, degraded_out = 0, blocked_in = 0;
  for (int t = 0; t < ticks; ++t) {
    for (int in = 0; in < ports; ++in)
      if (rng.bernoulli(0.45)) sched->request(in, port());
    switch (t % 100) {
      case 10: sched->block_output(blocked_out = port()); break;
      case 40: sched->unblock_output(blocked_out); break;
      case 25:
        sched->set_output_capacity(degraded_out = port(), receivers - 1);
        break;
      case 75: sched->set_output_capacity(degraded_out, receivers); break;
      case 50: sched->block_input(blocked_in = port()); break;
      case 90: sched->unblock_input(blocked_in); break;
      default: break;
    }
    const std::vector<Grant>& grants = sched->tick();
    put(static_cast<int>(grants.size()));
    for (const Grant& g : grants) {
      put(g.input);
      put(g.output);
      put(g.receiver);
    }
  }
  return ckpt::crc32(bytes);
}

TEST(Scheduler, GrantSequencesArePinned) {
  // Exactness pin: the grant sequences of every kind, at one-word (16,
  // 64) and three-word (130) PortSets, equal the values computed before
  // the tick became allocation-free. The 512-port (8-word) and
  // 2,048-port (32-word) rows cover the benchmark's and the paper's
  // switch sizes; they run 300 ticks to keep the test short. Any
  // change to arbitration order, pointer updates or receiver numbering
  // shows up here.
  struct Pin {
    SchedulerKind kind;
    int receivers;
    int ports;
    std::uint32_t crc;
    int ticks = 2'000;
  };
  const Pin pins[] = {
      {SchedulerKind::kIslip, 1, 16, 0xA2B38FBBU},
      {SchedulerKind::kIslip, 1, 64, 0xDE423CB9U},
      {SchedulerKind::kIslip, 1, 130, 0xBF1F203EU},
      {SchedulerKind::kIslip, 2, 16, 0xCCD6B025U},
      {SchedulerKind::kIslip, 2, 64, 0x32B71AFBU},
      {SchedulerKind::kIslip, 2, 130, 0xC6123535U},
      {SchedulerKind::kPim, 1, 16, 0x0760042BU},
      {SchedulerKind::kPim, 1, 64, 0xC847BF96U},
      {SchedulerKind::kPim, 1, 130, 0xEE540D1BU},
      {SchedulerKind::kPim, 2, 16, 0x1EE770F0U},
      {SchedulerKind::kPim, 2, 64, 0x1A54117FU},
      {SchedulerKind::kPim, 2, 130, 0x8D535FAAU},
      {SchedulerKind::kPipelinedIslip, 1, 16, 0x5DF5C618U},
      {SchedulerKind::kPipelinedIslip, 1, 64, 0xB9A00B1FU},
      {SchedulerKind::kPipelinedIslip, 1, 130, 0x8B25BF4CU},
      {SchedulerKind::kPipelinedIslip, 2, 16, 0x1E6FCE98U},
      {SchedulerKind::kPipelinedIslip, 2, 64, 0x7D4456BBU},
      {SchedulerKind::kPipelinedIslip, 2, 130, 0x1777FD49U},
      {SchedulerKind::kFlppr, 1, 16, 0x9CAC8301U},
      {SchedulerKind::kFlppr, 1, 64, 0xF2B4FFE8U},
      {SchedulerKind::kFlppr, 1, 130, 0xBD9AD0CAU},
      {SchedulerKind::kFlppr, 2, 16, 0x59A40455U},
      {SchedulerKind::kFlppr, 2, 64, 0x39961092U},
      {SchedulerKind::kFlppr, 2, 130, 0xC8BE0227U},
      {SchedulerKind::kTdm, 1, 16, 0x7071C409U},
      {SchedulerKind::kTdm, 1, 64, 0x01791A07U},
      {SchedulerKind::kTdm, 1, 130, 0x5E6524F4U},
      {SchedulerKind::kTdm, 2, 16, 0x5F2E714DU},
      {SchedulerKind::kTdm, 2, 64, 0x84BC9FDCU},
      {SchedulerKind::kTdm, 2, 130, 0x6FDC3E1CU},
      {SchedulerKind::kWfa, 1, 16, 0x78674D93U},
      {SchedulerKind::kWfa, 1, 64, 0xA8014BCAU},
      {SchedulerKind::kWfa, 1, 130, 0xB0469A5AU},
      {SchedulerKind::kWfa, 2, 16, 0x2C2D2941U},
      {SchedulerKind::kWfa, 2, 64, 0xDA710F2EU},
      {SchedulerKind::kWfa, 2, 130, 0xB150F293U},
      {SchedulerKind::kIslip, 1, 512, 0xDFA3E10FU, 300},
      {SchedulerKind::kIslip, 2, 512, 0xD741FC1EU, 300},
      {SchedulerKind::kPim, 1, 512, 0x13E09803U, 300},
      {SchedulerKind::kPim, 2, 512, 0x9D81E303U, 300},
      {SchedulerKind::kPipelinedIslip, 1, 512, 0x40B6E507U, 300},
      {SchedulerKind::kPipelinedIslip, 2, 512, 0x1ED0C037U, 300},
      {SchedulerKind::kFlppr, 1, 512, 0xDD423B2DU, 300},
      {SchedulerKind::kFlppr, 2, 512, 0x46A06207U, 300},
      {SchedulerKind::kIslip, 1, 2048, 0xF1AAC51EU, 300},
      {SchedulerKind::kIslip, 2, 2048, 0x5EE7272AU, 300},
      {SchedulerKind::kFlppr, 1, 2048, 0x4264F866U, 300},
      {SchedulerKind::kFlppr, 2, 2048, 0x2FDAA66EU, 300},
  };
  for (const Pin& p : pins) {
    const std::uint32_t crc = grant_sequence_crc(p.kind, p.receivers,
                                                 p.ports, p.ticks);
    EXPECT_EQ(crc, p.crc) << "kind " << static_cast<int>(p.kind)
                          << " receivers=" << p.receivers
                          << " ports=" << p.ports << " ticks=" << p.ticks;
  }
}

/// Checks `d`'s demand views against a recomputation from candidates():
/// bit w of summary(out) marks a non-zero word w, and an output is in
/// the demand set exactly when its summary is non-zero.
void expect_views_match_candidates(const DemandState& d) {
  for (int out = 0; out < d.ports(); ++out) {
    const PortSet& c = d.candidates(out);
    std::uint64_t want = 0;
    for (int w = 0; w < c.word_count(); ++w)
      if (c.word(w) != 0) want |= std::uint64_t{1} << w;
    ASSERT_EQ(d.summary(out), want) << "output " << out;
    ASSERT_EQ(d.outputs_with_demand().test(out), want != 0)
        << "output " << out;
  }
}

TEST(DemandState, ViewsFollowEveryMutatorAndRebuildOnLoad) {
  // A seeded mix of every mutator at three-word (130) and 32-word (2048)
  // candidate sets. Inputs and outputs are drawn from a few words so
  // that words and outputs empty and refill often.
  for (const int ports : {130, 2048}) {
    DemandState d(ports);
    sim::Rng rng(0xD5A7 + static_cast<std::uint64_t>(ports));
    const auto port = [&] {
      return static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(ports)));
    };
    std::vector<std::pair<int, int>> pending;  // one entry per request
    const int steps = ports == 130 ? 3'000 : 400;
    for (int step = 0; step < steps; ++step) {
      const auto op = rng.uniform_int(8);
      if (op < 3 || pending.empty()) {
        const int in = port(), out = port();
        d.add_request(in, out);
        pending.emplace_back(in, out);
      } else if (op < 5) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::uint64_t>(pending.size())));
        const auto [in, out] = pending[k];
        pending[k] = pending.back();
        pending.pop_back();
        if (op == 3)
          d.reserve(in, out);
        else
          d.cancel_request(in, out);
      } else if (op == 5) {
        const int in = port();
        if (d.input_blocked(in))
          d.unblock_input(in);
        else
          d.block_input(in);
      } else {
        const int out = port();
        if (d.blocked(out))
          d.unblock_output(out);
        else
          d.block_output(out);
      }
      ASSERT_NO_FATAL_FAILURE(expect_views_match_candidates(d))
          << "ports " << ports << " step " << step;
    }

    ckpt::Sink sink;
    ckpt::field(sink, d);
    const std::string bytes = sink.take();
    DemandState loaded(ports);
    ckpt::Source src(bytes);
    ckpt::field(src, loaded);
    src.expect_end();
    ASSERT_NO_FATAL_FAILURE(expect_views_match_candidates(loaded));
    for (int out = 0; out < ports; ++out)
      ASSERT_EQ(loaded.summary(out), d.summary(out)) << "output " << out;
  }
}

TEST(Scheduler, GrantPointerInTheLastSummaryWordWraps) {
  // 4,096 ports fill the summary word. Granting (4090, 0) moves output
  // 0's grant pointer to 4091, in word 63; the round-robin scan must
  // then take 4093 before it wraps to 5.
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kIslip;
  cfg.ports = DemandState::kMaxPorts;
  cfg.receivers = 1;
  auto sched = make_scheduler(cfg);
  const auto only_grant = [&] {
    const std::vector<Grant>& grants = sched->tick();
    EXPECT_EQ(grants.size(), 1u);
    return grants.empty() ? Grant{-1, -1, -1} : grants.front();
  };
  sched->request(4090, 0);
  EXPECT_EQ(only_grant().input, 4090);
  sched->request(5, 0);
  sched->request(4093, 0);
  EXPECT_EQ(only_grant().input, 4093);
  EXPECT_EQ(only_grant().input, 5);
}

/// Cycles from a single request in an otherwise idle switch to its grant.
int grant_latency_of_single_request(Scheduler& sched, int in, int out,
                                    int max_cycles = 64) {
  sched.request(in, out);
  for (int t = 0; t < max_cycles; ++t) {
    const auto grants = sched.tick();
    for (const auto& g : grants)
      if (g.input == in && g.output == out) return t + 1;
  }
  return -1;
}

TEST(Flppr, SingleRequestGrantedInOneCycle) {
  // Fig. 6: FLPPR needs a single packet cycle from request to grant in
  // a lightly loaded 64-port switch.
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kFlppr;
  cfg.ports = 64;
  cfg.receivers = 1;
  auto sched = make_scheduler(cfg);
  // Warm the pipeline with a few idle cycles first.
  for (int t = 0; t < 12; ++t) sched->tick();
  EXPECT_EQ(grant_latency_of_single_request(*sched, 5, 9), 1);
  EXPECT_EQ(grant_latency_of_single_request(*sched, 63, 0), 1);
}

TEST(PipelinedIslip, SingleRequestWaitsPipelineDepth) {
  // Fig. 6: prior art grants after ~log2(N) = 6 cycles at 64 ports.
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kPipelinedIslip;
  cfg.ports = 64;
  cfg.receivers = 1;
  auto sched = make_scheduler(cfg);
  for (int t = 0; t < 12; ++t) sched->tick();
  const int latency = grant_latency_of_single_request(*sched, 5, 9);
  EXPECT_GE(latency, 5);
  EXPECT_LE(latency, 7);
}

TEST(Flppr, EarliestFirstPolicyIsTheLowLatencyOne) {
  // Ablation: the FLPPR novelty is serving the soonest-issuing
  // sub-scheduler first. With a naive fixed service order the same
  // hardware averages ~(K+1)/2 cycles of request-to-grant latency.
  auto latency_of = [](FlpprPolicy policy) {
    SchedulerConfig cfg;
    cfg.kind = SchedulerKind::kFlppr;
    cfg.ports = 64;
    cfg.receivers = 1;
    cfg.flppr_policy = policy;
    auto sched = make_scheduler(cfg);
    for (int t = 0; t < 12; ++t) sched->tick();
    double total = 0;
    int samples = 0;
    for (int probe = 0; probe < 24; ++probe) {
      const int in = (probe * 7) % 64;
      const int out = (probe * 13 + 5) % 64;
      const int lat = grant_latency_of_single_request(*sched, in, out);
      EXPECT_GT(lat, 0);
      total += lat;
      ++samples;
    }
    return total / samples;
  };
  const double fast = latency_of(FlpprPolicy::kEarliestFirst);
  const double naive = latency_of(FlpprPolicy::kFixedOrder);
  EXPECT_LT(fast, 1.3);
  EXPECT_GT(naive, fast + 1.0);
}

TEST(Flppr, DepthMatchesLog2Ports) {
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kFlppr;
  cfg.ports = 64;
  auto sched = make_scheduler(cfg);
  EXPECT_NE(sched->name().find("depth=6"), std::string::npos);
}

TEST(Scheduler, SaturatedUniformThroughputNear100) {
  // [17]: VOQ + good matching reaches ~100 % throughput. Saturate all
  // VOQs and count grants per cycle.
  for (SchedulerKind kind :
       {SchedulerKind::kIslip, SchedulerKind::kFlppr,
        SchedulerKind::kPipelinedIslip}) {
    SchedulerConfig cfg;
    cfg.kind = kind;
    cfg.ports = 16;
    cfg.receivers = 1;
    auto sched = make_scheduler(cfg);
    sim::Rng rng(7);
    // Pre-fill: every VOQ holds plenty of cells.
    for (int in = 0; in < 16; ++in)
      for (int out = 0; out < 16; ++out)
        for (int k = 0; k < 64; ++k) sched->request(in, out);
    std::uint64_t grants = 0;
    const int cycles = 500;
    for (int t = 0; t < cycles; ++t) grants += sched->tick().size();
    const double throughput =
        static_cast<double>(grants) / (cycles * 16.0);
    EXPECT_GT(throughput, 0.95) << "kind " << static_cast<int>(kind);
  }
}

TEST(Wfa, ProducesMaximalMatching) {
  // After a WFA tick no augmenting pair may remain: any (input, output)
  // with leftover demand must have its input matched or its output full.
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kWfa;
  cfg.ports = 16;
  cfg.receivers = 1;
  auto sched = make_scheduler(cfg);
  sim::Rng rng(0x3FA);
  for (int t = 0; t < 200; ++t) {
    std::vector<std::vector<int>> demand(16, std::vector<int>(16, 0));
    for (int in = 0; in < 16; ++in) {
      if (rng.bernoulli(0.6)) {
        const int out = static_cast<int>(rng.uniform_int(16));
        sched->request(in, out);
        ++demand[static_cast<std::size_t>(in)][static_cast<std::size_t>(out)];
      }
    }
    const auto grants = sched->tick();
    std::vector<bool> in_matched(16, false);
    std::vector<int> out_used(16, 0);
    for (const auto& g : grants) {
      in_matched[static_cast<std::size_t>(g.input)] = true;
      ++out_used[static_cast<std::size_t>(g.output)];
      --demand[static_cast<std::size_t>(g.input)]
              [static_cast<std::size_t>(g.output)];
    }
    // demand[][] now holds what was requested this tick minus grants;
    // older leftovers also count, so query the scheduler's residual via
    // a second tick opportunity instead: check only this tick's fresh
    // leftovers for augmenting pairs.
    for (int in = 0; in < 16; ++in) {
      for (int out = 0; out < 16; ++out) {
        if (demand[static_cast<std::size_t>(in)]
                  [static_cast<std::size_t>(out)] > 0) {
          EXPECT_TRUE(in_matched[static_cast<std::size_t>(in)] ||
                      out_used[static_cast<std::size_t>(out)] >= 1)
              << "augmenting pair (" << in << "," << out << ") left";
        }
      }
    }
  }
}

TEST(Wfa, SaturatedThroughputNearFull) {
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kWfa;
  cfg.ports = 16;
  cfg.receivers = 1;
  auto sched = make_scheduler(cfg);
  for (int in = 0; in < 16; ++in)
    for (int out = 0; out < 16; ++out)
      for (int k = 0; k < 64; ++k) sched->request(in, out);
  std::uint64_t grants = 0;
  for (int t = 0; t < 400; ++t) grants += sched->tick().size();
  EXPECT_GT(static_cast<double>(grants) / (400.0 * 16.0), 0.99);
}

TEST(Scheduler, BlockedOutputReceivesNoGrants) {
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kFlppr;
  cfg.ports = 8;
  auto sched = make_scheduler(cfg);
  for (int in = 0; in < 8; ++in) {
    sched->request(in, 3);
    sched->request(in, 4);
  }
  sched->block_output(3);
  for (int t = 0; t < 50; ++t) {
    for (const auto& g : sched->tick()) EXPECT_NE(g.output, 3);
  }
  // Unblocking releases the parked demand.
  sched->unblock_output(3);
  std::uint64_t grants_to_3 = 0;
  for (int t = 0; t < 50; ++t)
    for (const auto& g : sched->tick())
      if (g.output == 3) ++grants_to_3;
  EXPECT_EQ(grants_to_3, 8u);
}

TEST(Scheduler, DualReceiverDoublesOutputCapacity) {
  // All inputs demand the same output: with R receivers the output can
  // sink R cells per cycle.
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kIslip;
  cfg.ports = 8;
  cfg.receivers = 2;
  auto sched = make_scheduler(cfg);
  for (int in = 0; in < 8; ++in)
    for (int k = 0; k < 10; ++k) sched->request(in, 0);
  const auto grants = sched->tick();
  int to_zero = 0;
  for (const auto& g : grants) to_zero += g.output == 0;
  EXPECT_EQ(to_zero, 2);
}

TEST(Scheduler, IslipFairUnderPersistentContention) {
  // Round-robin pointers must serve all inputs contending for one
  // output, with no starvation.
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kIslip;
  cfg.ports = 8;
  cfg.receivers = 1;
  auto sched = make_scheduler(cfg);
  std::vector<int> served(8, 0);
  for (int t = 0; t < 800; ++t) {
    for (int in = 0; in < 8; ++in) sched->request(in, 5);
    for (const auto& g : sched->tick()) ++served[static_cast<std::size_t>(g.input)];
  }
  for (int in = 0; in < 8; ++in)
    EXPECT_NEAR(served[static_cast<std::size_t>(in)], 100, 25) << "input " << in;
}

TEST(Scheduler, TdmServesDiagonalPattern) {
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kTdm;
  cfg.ports = 4;
  auto sched = make_scheduler(cfg);
  sched->request(0, 0);
  const auto g0 = sched->tick();  // t=0 connects 0->0
  ASSERT_EQ(g0.size(), 1u);
  EXPECT_EQ(g0[0].input, 0);
  EXPECT_EQ(g0[0].output, 0);
  sched->request(0, 1);  // only served when the rotation hits 0->1 (t=1)
  const auto g1 = sched->tick();
  ASSERT_EQ(g1.size(), 1u);
  EXPECT_EQ(g1[0].output, 1);
}

TEST(Scheduler, OutstandingTracksRequestsMinusGrants) {
  SchedulerConfig cfg;
  cfg.kind = SchedulerKind::kIslip;
  cfg.ports = 4;
  auto sched = make_scheduler(cfg);
  sched->request(0, 1);
  sched->request(2, 3);
  EXPECT_EQ(sched->outstanding(), 2u);
  const auto grants = sched->tick();
  EXPECT_EQ(sched->outstanding(), 2u - grants.size());
}

TEST(Scheduler, FactoryRejectsInvalid) {
  SchedulerConfig cfg;
  cfg.ports = 0;
  EXPECT_DEATH(make_scheduler(cfg), "at least one port");
  cfg.ports = DemandState::kMaxPorts + 1;
  EXPECT_DEATH(make_scheduler(cfg), "4097 ports exceed the 4096");
}

}  // namespace
}  // namespace osmosis::sw
