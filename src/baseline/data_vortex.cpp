#include "src/baseline/data_vortex.hpp"

#include <algorithm>

#include "src/util/log.hpp"
#include "src/util/units.hpp"

namespace osmosis::baseline {

DataVortex::DataVortex(DataVortexConfig cfg,
                       std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg),
      // log2(N) descents fix all address bits, so log2(N)+1 cylinders.
      levels_(util::ceil_log2(static_cast<std::uint64_t>(cfg.ports)) + 1),
      traffic_(std::move(traffic)) {
  OSMOSIS_REQUIRE(cfg_.ports >= 2 && (cfg_.ports & (cfg_.ports - 1)) == 0,
                  "Data Vortex needs a power-of-two port count");
  OSMOSIS_REQUIRE(cfg_.angles >= 2, "need at least two angle positions");
  OSMOSIS_REQUIRE(traffic_ != nullptr && traffic_->ports() == cfg_.ports,
                  "traffic generator port mismatch");
  const std::size_t nodes = static_cast<std::size_t>(levels_) *
                            static_cast<std::size_t>(cfg_.ports) *
                            static_cast<std::size_t>(cfg_.angles);
  nodes_.assign(nodes, std::nullopt);
  next_nodes_.assign(nodes, std::nullopt);
  inject_queue_.resize(static_cast<std::size_t>(cfg_.ports));
}

int DataVortex::node_index(int cyl, int height, int angle) const {
  return (cyl * cfg_.ports + height) * cfg_.angles + angle;
}

bool DataVortex::height_matches(int height, int dst, int cyl) const {
  // In cylinder c the top c address bits of the height are already
  // fixed to the destination's.
  if (cyl == 0) return true;
  const int shift = (levels_ - 1) - cyl;  // address bits = levels_ - 1
  return (height >> shift) == (dst >> shift);
}

DataVortexResult DataVortex::run() {
  sim::Histogram delay_hist(256.0);
  sim::ThroughputMeter meter;
  sim::MeanVar hops_stat;
  std::uint64_t deflections_total = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t injection_blocked = 0;

  DataVortexResult r;
  r.ports = cfg_.ports;
  r.offered_load = traffic_->offered_load();

  std::vector<std::uint8_t> output_used(
      static_cast<std::size_t>(cfg_.ports), 0);

  const std::uint64_t total = cfg_.warmup_slots + cfg_.measure_slots;
  for (std::uint64_t t = 0; t < total; ++t) {
    const bool measuring = t >= cfg_.warmup_slots;

    // New offered traffic joins the injection queues.
    for (int in = 0; in < cfg_.ports; ++in) {
      sim::Arrival a;
      if (!traffic_->sample(in, a)) continue;
      Packet p;
      p.dst = a.dst;
      p.arrival_slot = t;
      inject_queue_[static_cast<std::size_t>(in)].push_back(p);
    }

    // Synchronous hop: innermost cylinders move first (they have
    // priority; a resident packet blocks descents into its next node).
    std::fill(next_nodes_.begin(), next_nodes_.end(), std::nullopt);
    std::fill(output_used.begin(), output_used.end(), 0);

    for (int cyl = levels_ - 1; cyl >= 0; --cyl) {
      for (int h = 0; h < cfg_.ports; ++h) {
        for (int a = 0; a < cfg_.angles; ++a) {
          auto& slot = nodes_[static_cast<std::size_t>(node_index(cyl, h, a))];
          if (!slot) continue;
          Packet p = *slot;
          ++p.hops;
          const int next_angle = (a + 1) % cfg_.angles;

          // Innermost cylinder with the full address resolved: exit.
          if (cyl == levels_ - 1 && h == p.dst) {
            if (!output_used[static_cast<std::size_t>(p.dst)]) {
              output_used[static_cast<std::size_t>(p.dst)] = 1;
              delivered_total += 1;
              deflections_total += static_cast<std::uint64_t>(p.deflections);
              if (measuring) {
                delay_hist.add(static_cast<double>(t - p.arrival_slot) + 1.0);
                hops_stat.add(static_cast<double>(p.hops));
                meter.add_delivery();
              }
              continue;
            }
            // Output busy this slot: deflect around the ring.
            ++p.deflections;
            next_nodes_[static_cast<std::size_t>(
                node_index(cyl, h, next_angle))] = p;
            continue;
          }

          // Try to descend, fixing the next address bit of the height.
          if (cyl < levels_ - 1) {
            const int bit = levels_ - 2 - cyl;  // bit refined by this hop
            const int h_down =
                (h & ~(1 << bit)) | (p.dst & (1 << bit));
            auto& target = next_nodes_[static_cast<std::size_t>(
                node_index(cyl + 1, h_down, next_angle))];
            if (!target && height_matches(h_down, p.dst, cyl + 1)) {
              target = p;
              continue;
            }
          }
          // Deflection: continue around the current cylinder. Ring
          // rotation is injective, and inner cylinders (processed first)
          // never reserve outer-cylinder nodes, so the slot is free.
          ++p.deflections;
          next_nodes_[static_cast<std::size_t>(
              node_index(cyl, h, next_angle))] = p;
        }
      }
    }

    // Injection at cylinder 0, height = input index, angle 0 — one
    // opportunity per input per slot, blocked while the node is busy.
    for (int in = 0; in < cfg_.ports; ++in) {
      auto& q = inject_queue_[static_cast<std::size_t>(in)];
      if (q.empty()) continue;
      auto& entry =
          next_nodes_[static_cast<std::size_t>(node_index(0, in, 0))];
      if (entry) {
        ++injection_blocked;
        continue;
      }
      entry = q.front();
      q.pop_front();
    }

    nodes_.swap(next_nodes_);
    if (measuring)
      meter.advance_slots(1, static_cast<std::uint64_t>(cfg_.ports));
  }

  r.throughput = meter.utilization();
  r.mean_delay = delay_hist.mean();
  r.p99_delay = delay_hist.p99();
  r.mean_hops = hops_stat.mean();
  r.deflection_rate =
      delivered_total
          ? static_cast<double>(deflections_total) /
                static_cast<double>(delivered_total)
          : 0.0;
  r.delivered = delay_hist.count();
  r.injection_blocked = injection_blocked;
  return r;
}

DataVortexResult run_vortex_uniform(const DataVortexConfig& cfg, double load,
                                    std::uint64_t seed) {
  DataVortex v(cfg, sim::make_uniform(cfg.ports, load, seed));
  return v.run();
}

}  // namespace osmosis::baseline
