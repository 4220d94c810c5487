#pragma once
// The telemetry facade every simulator embeds: one TelemetryConfig knob
// on the sim's config struct, one Telemetry member on the sim. Disabled
// (the default) it is a handful of branches on a cold bool — cell
// handles stay -1 and every call is a guarded no-op, so the hot path
// pays nothing measurable. Enabled, it drives the CellTrace sampler,
// feeds the StageLatencyBook from completed spans, and assembles the
// RunReport from the sim's counters at the end of the run.

#include <cstdint>
#include <string>

#include "src/mgmt/counters.hpp"
#include "src/prof/timeseries.hpp"
#include "src/telemetry/run_report.hpp"
#include "src/telemetry/stage_latency.hpp"
#include "src/telemetry/trace.hpp"

namespace osmosis::telemetry {

struct TelemetryConfig {
  bool enabled = false;
  std::uint32_t sample_every = 16;   // trace 1-in-N cells
  std::size_t ring_capacity = 4096;  // completed spans retained
  // In-run time series (DESIGN.md §11). Off by default and independent
  // of `enabled` above: the sampler is driven by slot count only, so it
  // stays deterministic regardless of cell-trace sampling.
  prof::TimeSeriesConfig timeseries;
};

/// Stage-histogram shape: linear bins up to `linear_limit`, geometric
/// bins growing by `growth` above it. Each engine passes the shape that
/// suits its time unit.
struct HistShape {
  double linear_limit;
  double growth;
};
inline constexpr HistShape kCycleHist{256.0, 1.25};  // cell cycles, slots
inline constexpr HistShape kNsHist{8192.0, 1.1};     // nanoseconds

class Telemetry {
 public:
  Telemetry() : Telemetry(TelemetryConfig{}, kCycleHist) {}
  Telemetry(const TelemetryConfig& cfg, HistShape shape);

  bool enabled() const { return cfg_.enabled; }

  /// Samples one cell; returns its trace handle (-1 when disabled or
  /// not sampled). Stamps Stage::kEnqueue at `when`.
  std::int32_t begin_cell(int src, int dst, double when) {
    return cfg_.enabled ? trace_.begin(src, dst, when) : -1;
  }
  void mark(std::int32_t handle, Stage s, double when) {
    if (handle >= 0) trace_.mark(handle, s, when);
  }
  void mark_first(std::int32_t handle, Stage s, double when) {
    if (handle >= 0) trace_.mark_first(handle, s, when);
  }
  void fc_hold(std::int32_t handle, std::uint32_t cycles = 1) {
    if (handle >= 0) trace_.fc_hold(handle, cycles);
  }
  void retransmit(std::int32_t handle) {
    if (handle >= 0) trace_.retransmit(handle);
  }
  /// Completes a span at delivery; spans finished during the measuring
  /// window (`measured`) also feed the stage-latency histograms, so the
  /// decomposition covers exactly the measured cell population.
  void finish_cell(std::int32_t handle, double when, bool measured) {
    if (handle < 0) return;
    const CellSpan s = trace_.end(handle, when);
    if (measured) stages_.record(s);
  }

  CellTrace& trace() { return trace_; }
  const CellTrace& trace() const { return trace_; }
  prof::TimeSeriesSampler& series() { return series_; }
  const prof::TimeSeriesSampler& series() const { return series_; }
  StageLatencyBook& stages() { return stages_; }
  const StageLatencyBook& stages() const { return stages_; }
  mgmt::CounterRegistry& counters() { return counters_; }
  const mgmt::CounterRegistry& counters() const { return counters_; }

  /// Assembles the common report skeleton: schema/sim/unit, the counter
  /// snapshot (plus trace.* sampling counters), and the four stage
  /// histograms under their canonical names. The caller adds config,
  /// info, and extra histograms before serializing.
  RunReport make_report(const std::string& sim_name,
                        const std::string& time_unit) const;

  /// Checkpoint serialization: cfg_ is construction-time config (the
  /// sim rebuilds Telemetry from the same TelemetryConfig before load).
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, trace_);
    ckpt::field(a, stages_);
    ckpt::field(a, counters_);
    ckpt::field(a, series_);
  }

 private:
  TelemetryConfig cfg_;
  CellTrace trace_;
  StageLatencyBook stages_;
  mgmt::CounterRegistry counters_;
  prof::TimeSeriesSampler series_;
};

}  // namespace osmosis::telemetry
