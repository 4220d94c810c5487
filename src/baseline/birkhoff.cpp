#include "src/baseline/birkhoff.hpp"

#include "src/util/log.hpp"

namespace osmosis::baseline {

BvnSwitch::BvnSwitch(int ports, std::unique_ptr<sim::TrafficGen> traffic)
    : ports_(ports),
      traffic_(std::move(traffic)),
      middle_voq_(static_cast<std::size_t>(ports),
                  std::vector<std::deque<sw::Cell>>(
                      static_cast<std::size_t>(ports))) {
  OSMOSIS_REQUIRE(ports_ >= 1, "need at least one port");
  OSMOSIS_REQUIRE(traffic_ != nullptr && traffic_->ports() == ports_,
                  "traffic generator port mismatch");
  ledger_ = sim::FlowLedger(
      static_cast<std::size_t>(ports) * static_cast<std::size_t>(ports),
      static_cast<std::size_t>(ports));
}

BvnResult BvnSwitch::run(std::uint64_t warmup, std::uint64_t measure) {
  sim::Histogram delay_hist(256.0);
  sim::ThroughputMeter meter;
  BvnResult r;
  r.ports = ports_;
  r.offered_load = traffic_->offered_load();

  const std::uint64_t total = warmup + measure;
  for (std::uint64_t t = 0; t < total; ++t) {
    const bool measuring = t >= warmup;
    const int shift = static_cast<int>(t % static_cast<std::uint64_t>(ports_));

    // Stage 1 (TDM): input i is wired to middle (i + t) mod N; an
    // arriving cell crosses immediately, regardless of its destination.
    for (int in = 0; in < ports_; ++in) {
      sim::Arrival a;
      if (!traffic_->sample(in, a)) continue;
      const std::size_t flow = static_cast<std::size_t>(in) *
                                   static_cast<std::size_t>(ports_) +
                               static_cast<std::size_t>(a.dst);
      sw::Cell cell;
      cell.src = in;
      cell.dst = a.dst;
      cell.seq = ledger_.send(flow);
      cell.arrival_slot = t;
      const int mid = (in + shift) % ports_;
      middle_voq_[static_cast<std::size_t>(mid)]
                 [static_cast<std::size_t>(a.dst)]
                     .push_back(cell);
    }

    // Stage 2 (TDM): middle m is wired to output (m + t) mod N and sends
    // the head of the matching VOQ if any.
    for (int mid = 0; mid < ports_; ++mid) {
      const int out = (mid + shift) % ports_;
      auto& q = middle_voq_[static_cast<std::size_t>(mid)]
                           [static_cast<std::size_t>(out)];
      if (q.empty()) continue;
      const sw::Cell cell = q.front();
      q.pop_front();
      ledger_.deliver(static_cast<std::uint64_t>(cell.src) *
                              static_cast<std::uint64_t>(ports_) +
                          static_cast<std::uint64_t>(cell.dst),
                      cell.seq);
      if (measuring) {
        delay_hist.add(static_cast<double>(t - cell.arrival_slot) + 1.0);
        meter.add_delivery();
      }
    }
    if (measuring)
      meter.advance_slots(1, static_cast<std::uint64_t>(ports_));
  }

  r.throughput = meter.utilization();
  r.mean_delay = delay_hist.mean();
  r.p99_delay = delay_hist.p99();
  r.delivered = delay_hist.count();
  r.out_of_order = ledger_.out_of_order();
  r.reorder_fraction = ledger_.reorder_fraction();
  return r;
}

BvnResult run_bvn_uniform(int ports, double load, std::uint64_t seed,
                          std::uint64_t warmup, std::uint64_t measure) {
  BvnSwitch s(ports, sim::make_uniform(ports, load, seed));
  return s.run(warmup, measure);
}

}  // namespace osmosis::baseline
