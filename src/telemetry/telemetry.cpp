#include "src/telemetry/telemetry.hpp"

namespace osmosis::telemetry {

Telemetry::Telemetry(const TelemetryConfig& cfg, HistShape shape)
    : cfg_(cfg),
      trace_(cfg.ring_capacity, cfg.sample_every),
      stages_(shape.linear_limit, shape.growth),
      series_(cfg.timeseries) {}

RunReport Telemetry::make_report(const std::string& sim_name,
                                 const std::string& time_unit) const {
  RunReport r;
  r.sim = sim_name;
  r.time_unit = time_unit;
  r.counters = counters_.snapshot();
  r.counters["trace.cells_seen"] =
      static_cast<double>(trace_.cells_seen());
  r.counters["trace.cells_sampled"] =
      static_cast<double>(trace_.cells_sampled());
  r.counters["trace.cells_dropped"] =
      static_cast<double>(trace_.cells_dropped());
  r.counters["trace.sample_every"] =
      static_cast<double>(trace_.sample_every());
  r.histograms.emplace("stage.request_to_grant",
                       HistogramSummary::of(stages_.request_to_grant()));
  r.histograms.emplace("stage.grant_to_transmit",
                       HistogramSummary::of(stages_.grant_to_transmit()));
  r.histograms.emplace("stage.transmit_to_deliver",
                       HistogramSummary::of(stages_.transmit_to_deliver()));
  r.histograms.emplace("stage.end_to_end",
                       HistogramSummary::of(stages_.end_to_end()));
  // The timeseries key rides along only when the sampler captured rows;
  // an inert sampler keeps the report byte-identical to prior schemas.
  if (series_.enabled() && series_.size() > 0)
    r.timeseries = series_.snapshot();
  return r;
}

}  // namespace osmosis::telemetry
