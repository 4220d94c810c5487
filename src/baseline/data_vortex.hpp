#pragma once
// Data Vortex deflection-routing network ([10], §II/§VI.D): an
// all-optical multi-stage topology that resolves contention by
// *deflection* instead of buffering, keeping packets in the optical
// domain. The structure is a set of concentric cylinders; a packet
// spirals inward, fixing one destination-address bit per cylinder, and
// is deflected around the current cylinder whenever its inward path is
// occupied. Injection is blocked while the entry node is busy.
//
// The model here keeps the architectural essentials — C = log2(N)+1
// cylinder levels of (height x angle) single-packet nodes, bit-by-bit
// height refinement, deflection on contention, blocking injection — and
// abstracts the exact Data Vortex wiring parity (our deflected packets
// advance one angle step and retry; the real wiring also toggles the
// current height bit, which only changes *which* node retries). The
// properties the paper leans on survive: port count scales freely, no
// buffers exist, unloaded latency is ~log2(N) hops, and per-port
// throughput saturates well below full line rate as deflections multiply
// — measured by this simulator.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/sim/stats.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/cell.hpp"

namespace osmosis::baseline {

struct DataVortexConfig {
  int ports = 16;     // power of two
  int angles = 5;     // nodes around each cylinder ring
  std::uint64_t warmup_slots = 2'000;
  std::uint64_t measure_slots = 30'000;
};

struct DataVortexResult {
  int ports = 0;
  double offered_load = 0.0;
  double throughput = 0.0;          // delivered / slot / port
  double mean_delay = 0.0;          // injection queue + flight, in slots
  double p99_delay = 0.0;
  double mean_hops = 0.0;           // node-to-node hops in the vortex
  double deflection_rate = 0.0;     // deflections per delivered packet
  std::uint64_t delivered = 0;
  std::uint64_t injection_blocked = 0;  // slots an input stalled
};

class DataVortex {
 public:
  DataVortex(DataVortexConfig cfg, std::unique_ptr<sim::TrafficGen> traffic);

  DataVortexResult run();

 private:
  struct Packet {
    int dst = -1;
    std::uint64_t arrival_slot = 0;
    int hops = 0;
    int deflections = 0;
  };

  int node_index(int cyl, int height, int angle) const;
  /// Height a packet must reach in cylinder `cyl` (top `cyl` bits fixed).
  bool height_matches(int height, int dst, int cyl) const;

  DataVortexConfig cfg_;
  int levels_;  // log2(ports) cylinders + exit level
  std::unique_ptr<sim::TrafficGen> traffic_;
  // occupancy[cyl][height][angle] -> packet or empty
  std::vector<std::optional<Packet>> nodes_;
  std::vector<std::optional<Packet>> next_nodes_;
  std::vector<std::deque<Packet>> inject_queue_;  // per input
};

DataVortexResult run_vortex_uniform(const DataVortexConfig& cfg, double load,
                                    std::uint64_t seed);

}  // namespace osmosis::baseline
