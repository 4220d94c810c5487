// Property/fuzz suite for every scheduler kind: random interleavings of
// requests, flow-control blocking, input masking, capacity degradation
// and ticks must always produce valid matchings, never manufacture
// grants out of thin air, and — once the chaos stops — drain every
// outstanding request exactly once.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/sim/rng.hpp"
#include "src/sw/scheduler.hpp"

namespace osmosis::sw {
namespace {

struct FuzzParam {
  SchedulerKind kind;
  const char* name;
  int receivers;
  int ports = 12;
};

// gtest puts GetParam() into the listed test names; without this it dumps
// the struct's raw bytes (a pointer and padding), which vary per build.
void PrintTo(const FuzzParam& p, std::ostream* os) {
  *os << p.name << ", receivers=" << p.receivers;
}

class SchedulerFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(SchedulerFuzzTest, SurvivesChaosAndConservesCells) {
  const auto param = GetParam();
  const int ports = param.ports;
  SchedulerConfig cfg;
  cfg.kind = param.kind;
  cfg.ports = ports;
  cfg.receivers = param.receivers;
  cfg.seed = 0xF022;
  auto sched = make_scheduler(cfg);

  sim::Rng rng(0xFADE + static_cast<std::uint64_t>(param.kind) * 131 +
               static_cast<std::uint64_t>(param.receivers));
  const auto port = [&] {
    return static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(ports)));
  };
  std::map<std::pair<int, int>, long> owed;
  std::uint64_t requested = 0, granted = 0;
  std::vector<std::uint8_t> out_blocked(static_cast<std::size_t>(ports), 0);
  std::vector<std::uint8_t> in_blocked(static_cast<std::size_t>(ports), 0);

  auto check_grants = [&](const std::vector<Grant>& grants) {
    std::set<int> inputs;
    std::set<std::pair<int, int>> slots;
    for (const auto& g : grants) {
      ASSERT_TRUE(inputs.insert(g.input).second) << "input matched twice";
      ASSERT_TRUE(slots.insert({g.output, g.receiver}).second)
          << "(output, receiver) reused";
      ASSERT_GE(g.receiver, 0);
      ASSERT_LT(g.receiver, param.receivers);
      const long left = --owed[{g.input, g.output}];
      ASSERT_GE(left, 0) << "granted a cell that was never requested";
      ++granted;
    }
  };

  // Phase 1: chaos.
  for (int step = 0; step < 1'500; ++step) {
    // Requests.
    for (int in = 0; in < ports; ++in) {
      if (rng.bernoulli(0.5)) {
        const int out = port();
        sched->request(in, out);
        ++owed[{in, out}];
        ++requested;
      }
    }
    // Random control-plane events.
    if (rng.bernoulli(0.10)) {
      const int out = port();
      if (out_blocked[static_cast<std::size_t>(out)] ^= 1)
        sched->block_output(out);
      else
        sched->unblock_output(out);
    }
    if (rng.bernoulli(0.06)) {
      const int in = port();
      if (in_blocked[static_cast<std::size_t>(in)] ^= 1)
        sched->block_input(in);
      else
        sched->unblock_input(in);
    }
    if (param.receivers > 1 && rng.bernoulli(0.05)) {
      const int out = port();
      sched->set_output_capacity(
          out, 1 + static_cast<int>(rng.uniform_int(
                       static_cast<std::uint64_t>(param.receivers))));
    }
    check_grants(sched->tick());
  }

  // Phase 2: restore everything and drain.
  for (int p = 0; p < ports; ++p) {
    sched->set_output_capacity(p, param.receivers);
    sched->unblock_output(p);
    sched->unblock_input(p);
  }
  int idle_ticks = 0;
  for (int step = 0; step < 20'000 && idle_ticks < 3 * ports; ++step) {
    const auto grants = sched->tick();
    check_grants(grants);
    idle_ticks = grants.empty() ? idle_ticks + 1 : 0;
  }

  EXPECT_EQ(granted, requested)
      << "scheduler lost or duplicated cells across the chaos";
  EXPECT_EQ(sched->outstanding(), 0u);
  for (const auto& [pair, count] : owed)
    EXPECT_EQ(count, 0) << "residual demand at (" << pair.first << ","
                        << pair.second << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SchedulerFuzzTest,
    ::testing::Values(FuzzParam{SchedulerKind::kIslip, "islip", 1},
                      FuzzParam{SchedulerKind::kIslip, "islip_dual", 2},
                      FuzzParam{SchedulerKind::kPim, "pim", 2},
                      FuzzParam{SchedulerKind::kPipelinedIslip, "pipe", 1},
                      FuzzParam{SchedulerKind::kPipelinedIslip, "pipe_dual",
                                2},
                      FuzzParam{SchedulerKind::kFlppr, "flppr", 1},
                      FuzzParam{SchedulerKind::kFlppr, "flppr_dual", 2},
                      FuzzParam{SchedulerKind::kWfa, "wfa", 2},
                      FuzzParam{SchedulerKind::kTdm, "tdm", 1}),
    [](const auto& info) { return std::string(info.param.name); });

// 130 ports: three-word candidate sets and demand summaries, so the
// word-at-a-time grant scans run under the same chaos.
INSTANTIATE_TEST_SUITE_P(
    MultiWord, SchedulerFuzzTest,
    ::testing::Values(
        FuzzParam{SchedulerKind::kIslip, "islip", 1, 130},
        FuzzParam{SchedulerKind::kIslip, "islip_dual", 2, 130},
        FuzzParam{SchedulerKind::kPim, "pim", 2, 130},
        FuzzParam{SchedulerKind::kPipelinedIslip, "pipe", 1, 130},
        FuzzParam{SchedulerKind::kPipelinedIslip, "pipe_dual", 2, 130},
        FuzzParam{SchedulerKind::kFlppr, "flppr", 1, 130},
        FuzzParam{SchedulerKind::kFlppr, "flppr_dual", 2, 130}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace osmosis::sw
