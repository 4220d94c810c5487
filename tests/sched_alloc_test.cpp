// Allocation guard for the scheduler hot path (DESIGN.md §17): after
// warm-up, request() and tick() never touch the heap, for every scheduler
// kind at one-word (64) and three-word (130) port sets, with one and two
// receivers. Counting needs a replaced global operator new, so this test
// is a binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/sim/rng.hpp"
#include "src/sw/scheduler.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OSMOSIS_SANITIZED 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#ifndef OSMOSIS_SANITIZED
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace osmosis::sw {
namespace {

TEST(SchedulerAlloc, TickAndRequestDoNotAllocateAfterWarmup) {
#ifdef OSMOSIS_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#endif
  constexpr int kWarmup = 100, kTicks = 1'000;
  for (SchedulerKind kind :
       {SchedulerKind::kIslip, SchedulerKind::kPim,
        SchedulerKind::kPipelinedIslip, SchedulerKind::kFlppr,
        SchedulerKind::kTdm, SchedulerKind::kWfa}) {
    for (int ports : {64, 130}) {
      for (int receivers : {1, 2}) {
        SchedulerConfig cfg;
        cfg.kind = kind;
        cfg.ports = ports;
        cfg.receivers = receivers;
        auto sched = make_scheduler(cfg);
        sim::Rng rng(0xA110C + static_cast<std::uint64_t>(ports));
        std::uint64_t before = 0, granted = 0;
        for (int t = 0; t < kWarmup + kTicks; ++t) {
          if (t == kWarmup) before = g_allocations.load();
          for (int in = 0; in < ports; ++in)
            if (rng.bernoulli(0.6))
              sched->request(in, static_cast<int>(rng.uniform_int(
                                     static_cast<std::uint64_t>(ports))));
          granted += sched->tick().size();
        }
        EXPECT_EQ(g_allocations.load() - before, 0u)
            << sched->name() << " ports=" << ports
            << " receivers=" << receivers;
        EXPECT_GT(granted, 0u) << sched->name();
      }
    }
  }
}

}  // namespace
}  // namespace osmosis::sw
