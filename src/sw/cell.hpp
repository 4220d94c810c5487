#pragma once
// The fixed-size cell (the demonstrator's 256-byte packet, §V) and the
// grant triple issued by the central scheduler.

#include <cstdint>

#include "src/ckpt/archive.hpp"
#include "src/sim/traffic.hpp"

namespace osmosis::sw {

/// One fixed-size cell traversing the switch.
struct Cell {
  int src = -1;
  int dst = -1;
  std::uint64_t seq = 0;           // per-(src,dst) sequence, for ordering
  std::uint64_t arrival_slot = 0;  // slot it entered the ingress VOQ
  sim::TrafficClass cls = sim::TrafficClass::kData;
  std::uint64_t tag = 0;           // opaque user tag (e.g. the operation
                                   // id api::ServeSim segments and settles)
  std::int32_t trace = -1;         // telemetry::CellTrace handle (-1 =
                                   // untraced; see src/telemetry/)

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, src);
    ckpt::field(a, dst);
    ckpt::field(a, seq);
    ckpt::field(a, arrival_slot);
    ckpt::field(a, cls);
    ckpt::field(a, tag);
    ckpt::field(a, trace);
  }
};

/// One crossbar connection for one cell cycle: input -> (output, receiver).
/// `receiver` selects which of the egress adapter's receivers (the
/// dual-receiver architecture gives each output two) carries the cell.
struct Grant {
  int input = -1;
  int output = -1;
  int receiver = 0;

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, input);
    ckpt::field(a, output);
    ckpt::field(a, receiver);
  }
};

}  // namespace osmosis::sw
