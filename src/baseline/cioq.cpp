#include "src/baseline/cioq.hpp"

#include <algorithm>

#include "src/util/log.hpp"

namespace osmosis::baseline {

CioqSwitch::CioqSwitch(CioqConfig cfg,
                       std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg), traffic_(std::move(traffic)) {
  OSMOSIS_REQUIRE(cfg_.ports >= 2, "need at least two ports");
  OSMOSIS_REQUIRE(cfg_.speedup >= 1, "speedup must be >= 1");
  OSMOSIS_REQUIRE(cfg_.output_buffer_cells >= 1,
                  "need at least one output buffer cell");
  OSMOSIS_REQUIRE(traffic_ != nullptr && traffic_->ports() == cfg_.ports,
                  "traffic generator port mismatch");
  sw::SchedulerConfig sc;
  sc.kind = sw::SchedulerKind::kIslip;
  sc.ports = cfg_.ports;
  sc.receivers = 1;
  sched_ = sw::make_scheduler(sc);
  voqs_.reserve(static_cast<std::size_t>(cfg_.ports));
  for (int in = 0; in < cfg_.ports; ++in) voqs_.emplace_back(in, cfg_.ports);
  out_queue_.resize(static_cast<std::size_t>(cfg_.ports));
  ledger_ = sim::FlowLedger(static_cast<std::size_t>(cfg_.ports) *
                                static_cast<std::size_t>(cfg_.ports),
                            static_cast<std::size_t>(cfg_.ports));
}

CioqResult CioqSwitch::run() {
  sim::Histogram delay_hist;
  sim::ThroughputMeter meter;
  std::uint64_t violations = 0, opportunities = 0;
  int max_out_occ = 0;

  CioqResult r;
  r.ports = cfg_.ports;
  r.speedup = cfg_.speedup;
  r.offered_load = traffic_->offered_load();

  const std::uint64_t total = cfg_.warmup_slots + cfg_.measure_slots;
  std::vector<int> waiting(static_cast<std::size_t>(cfg_.ports), 0);

  for (std::uint64_t t = 0; t < total; ++t) {
    const bool measuring = t >= cfg_.warmup_slots;

    // Arrivals.
    for (int in = 0; in < cfg_.ports; ++in) {
      sim::Arrival a;
      if (!traffic_->sample(in, a)) continue;
      const std::size_t flow = static_cast<std::size_t>(in) *
                                   static_cast<std::size_t>(cfg_.ports) +
                               static_cast<std::size_t>(a.dst);
      sw::Cell cell;
      cell.src = in;
      cell.dst = a.dst;
      cell.seq = ledger_.send(flow);
      cell.arrival_slot = t;
      voqs_[static_cast<std::size_t>(in)].push(cell);
      sched_->request(in, a.dst);
      ++waiting[static_cast<std::size_t>(a.dst)];
    }

    // S matching phases: the crossbar's internal speedup.
    for (int phase = 0; phase < cfg_.speedup; ++phase) {
      for (int out = 0; out < cfg_.ports; ++out) {
        const bool full =
            static_cast<int>(out_queue_[static_cast<std::size_t>(out)]
                                 .size()) >= cfg_.output_buffer_cells;
        if (full)
          sched_->block_output(out);
        else
          sched_->unblock_output(out);
      }
      for (const sw::Grant& g : sched_->tick()) {
        sw::Cell cell =
            voqs_[static_cast<std::size_t>(g.input)].pop(g.output);
        out_queue_[static_cast<std::size_t>(g.output)].push_back(cell);
      }
    }
    for (const auto& q : out_queue_)
      max_out_occ = std::max(max_out_occ, static_cast<int>(q.size()));

    // Egress lines drain one cell per cycle; work-conservation audit:
    // `waiting[out]` counts every cell for `out` anywhere in the switch.
    for (int out = 0; out < cfg_.ports; ++out) {
      auto& q = out_queue_[static_cast<std::size_t>(out)];
      const bool had_work = waiting[static_cast<std::size_t>(out)] > 0;
      if (measuring && had_work) ++opportunities;
      if (!q.empty()) {
        const sw::Cell cell = q.front();
        q.pop_front();
        --waiting[static_cast<std::size_t>(out)];
        ledger_.deliver(static_cast<std::uint64_t>(cell.src) *
                                static_cast<std::uint64_t>(cfg_.ports) +
                            static_cast<std::uint64_t>(cell.dst),
                        cell.seq);
        if (measuring) {
          delay_hist.add(static_cast<double>(t - cell.arrival_slot) + 1.0);
          meter.add_delivery();
        }
      } else if (had_work) {
        // Output idles while the switch holds a cell for it: the switch
        // is not work-conserving this cycle ([11]).
        if (measuring) ++violations;
      }
    }
    if (measuring)
      meter.advance_slots(1, static_cast<std::uint64_t>(cfg_.ports));
  }

  r.throughput = meter.utilization();
  r.mean_delay = delay_hist.mean();
  r.delivered = delay_hist.count();
  r.work_conservation_violation_rate =
      opportunities
          ? static_cast<double>(violations) / static_cast<double>(opportunities)
          : 0.0;
  r.max_output_occupancy = max_out_occ;
  r.out_of_order = ledger_.out_of_order();
  return r;
}

CioqResult run_cioq_uniform(const CioqConfig& cfg, double load,
                            std::uint64_t seed) {
  CioqSwitch s(cfg, sim::make_uniform(cfg.ports, load, seed));
  return s.run();
}

}  // namespace osmosis::baseline
