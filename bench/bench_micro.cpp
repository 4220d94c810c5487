// Google-benchmark microbenchmarks for the library's hot paths: the
// schedulers' per-cycle arbitration (which in hardware must fit in a
// 51.2 ns cell cycle), FEC encode/decode throughput (which must keep up
// with a 40 Gb/s line), GF(2^8) arithmetic, and the kernel primitives.

#include <benchmark/benchmark.h>

#include "src/fec/gf256.hpp"
#include "src/fec/hamming272.hpp"
#include "src/prof/profiler.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/portset.hpp"
#include "src/sw/scheduler.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/telemetry/trace.hpp"

using namespace osmosis;

namespace {

void BM_SchedulerTick(benchmark::State& state, sw::SchedulerKind kind) {
  sw::SchedulerConfig cfg;
  cfg.kind = kind;
  cfg.ports = static_cast<int>(state.range(0));
  cfg.receivers = 2;
  auto sched = sw::make_scheduler(cfg);
  sim::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    for (int in = 0; in < cfg.ports; ++in)
      if (rng.bernoulli(0.8))
        sched->request(in, static_cast<int>(rng.uniform_int(
                               static_cast<std::uint64_t>(cfg.ports))));
    state.ResumeTiming();
    benchmark::DoNotOptimize(sched->tick());
  }
}

void BM_FlpprTick(benchmark::State& state) {
  BM_SchedulerTick(state, sw::SchedulerKind::kFlppr);
}
void BM_PipelinedIslipTick(benchmark::State& state) {
  BM_SchedulerTick(state, sw::SchedulerKind::kPipelinedIslip);
}
void BM_IslipTick(benchmark::State& state) {
  BM_SchedulerTick(state, sw::SchedulerKind::kIslip);
}

void BM_FecEncode(benchmark::State& state) {
  sim::Rng rng(2);
  fec::Hamming272::DataBlock data;
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
  for (auto _ : state) benchmark::DoNotOptimize(fec::Hamming272::encode(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}

void BM_FecDecodeClean(benchmark::State& state) {
  sim::Rng rng(3);
  fec::Hamming272::DataBlock data;
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
  auto cw = fec::Hamming272::encode(data);
  for (auto _ : state) benchmark::DoNotOptimize(fec::Hamming272::decode(cw));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}

void BM_FecDecodeWithError(benchmark::State& state) {
  sim::Rng rng(4);
  fec::Hamming272::DataBlock data;
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
  const auto clean = fec::Hamming272::encode(data);
  int bit = 0;
  for (auto _ : state) {
    auto cw = clean;
    fec::Hamming272::flip_bit(cw, bit);
    bit = (bit + 37) % fec::Hamming272::kCodeBits;
    benchmark::DoNotOptimize(fec::Hamming272::decode(cw));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}

void BM_GfMul(benchmark::State& state) {
  std::uint8_t a = 3, b = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fec::Gf256::mul(a, b));
    a += 1;
    b += 3;
  }
}

void BM_PortSetNextCircular(benchmark::State& state) {
  sw::PortSet s(static_cast<int>(state.range(0)));
  s.set(static_cast<int>(state.range(0)) - 1);
  int from = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.next_circular(from));
    from = (from + 7) % static_cast<int>(state.range(0));
  }
}

void BM_Rng(benchmark::State& state) {
  sim::Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}

// Whole-switch simulation with telemetry off (the default) vs tracing
// every cell. Arg = sample_every; 0 = telemetry disabled entirely. The
// off/disabled pair bounds the cost of having the hooks compiled in.
void BM_SwitchSimRun(benchmark::State& state) {
  const int sample_every = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sw::SwitchSimConfig cfg;
    cfg.ports = 16;
    cfg.warmup_slots = 100;
    cfg.measure_slots = 1'000;
    cfg.telemetry.enabled = sample_every > 0;
    cfg.telemetry.sample_every = sample_every > 0 ? sample_every : 1;
    sw::SwitchSim sim(cfg, sim::make_uniform(cfg.ports, 0.6, 7));
    benchmark::DoNotOptimize(sim.run());
  }
}

// Cost of one OSMOSIS_PROF_SCOPE with the profiler disabled (the
// steady state in every hot loop — one relaxed atomic load) and
// enabled (two clock reads plus a thread-local accumulate). The
// disabled number backs the <2%-per-slot bound schema_check --micro
// asserts against BM_SwitchSimRun/0.
void BM_ProfScopeDisabled(benchmark::State& state) {
  prof::Profiler::instance().disable();
  for (auto _ : state) {
    OSMOSIS_PROF_SCOPE("bench.micro");
    benchmark::ClobberMemory();
  }
}

void BM_ProfScopeEnabled(benchmark::State& state) {
  prof::Profiler::instance().enable(/*capture_spans=*/false);
  for (auto _ : state) {
    OSMOSIS_PROF_SCOPE("bench.micro");
    benchmark::ClobberMemory();
  }
  prof::Profiler::instance().disable();
  prof::Profiler::instance().reset();
}

void BM_CellTraceSpan(benchmark::State& state) {
  telemetry::CellTrace trace(/*ring_capacity=*/1024, /*sample_every=*/1);
  double t = 0.0;
  for (auto _ : state) {
    const auto h = trace.begin(0, 1, t);
    trace.mark(h, telemetry::Stage::kRequest, t + 1.0);
    trace.mark(h, telemetry::Stage::kGrant, t + 2.0);
    trace.mark(h, telemetry::Stage::kTransmit, t + 3.0);
    benchmark::DoNotOptimize(trace.end(h, t + 4.0));
    t += 1.0;
  }
}

}  // namespace

BENCHMARK(BM_FlpprTick)->Arg(16)->Arg(64);
BENCHMARK(BM_PipelinedIslipTick)->Arg(16)->Arg(64);
BENCHMARK(BM_IslipTick)->Arg(16)->Arg(64);
BENCHMARK(BM_FecEncode);
BENCHMARK(BM_FecDecodeClean);
BENCHMARK(BM_FecDecodeWithError);
BENCHMARK(BM_GfMul);
BENCHMARK(BM_PortSetNextCircular)->Arg(64)->Arg(256);
BENCHMARK(BM_Rng);
BENCHMARK(BM_SwitchSimRun)->Arg(0)->Arg(16)->Arg(1);
BENCHMARK(BM_ProfScopeDisabled);
BENCHMARK(BM_ProfScopeEnabled);
BENCHMARK(BM_CellTraceSpan);
