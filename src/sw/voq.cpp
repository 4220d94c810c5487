#include "src/sw/voq.hpp"

#include <algorithm>

#include "src/util/log.hpp"

namespace osmosis::sw {

VoqBank::VoqBank(int input, int outputs)
    : input_(input),
      outputs_(outputs),
      cells_(static_cast<std::size_t>(std::max(outputs, 0)) * 2) {
  OSMOSIS_REQUIRE(outputs_ >= 1, "need at least one output");
}

void VoqBank::push(const Cell& cell) {
  OSMOSIS_REQUIRE(cell.dst >= 0 && cell.dst < outputs_,
                  "cell destination out of range: " << cell.dst);
  cells_.push_back(queue_of(cell.dst, cell.cls), cell);
  max_depth_ = std::max(max_depth_, occupancy(cell.dst));
}

Cell VoqBank::pop(int dst) {
  OSMOSIS_REQUIRE(occupancy(dst) > 0, "pop on empty VOQ (" << input_ << " -> "
                                                           << dst << ")");
  const std::size_t control = queue_of(dst, sim::TrafficClass::kControl);
  return cells_.pop_front(cells_.empty(control)
                              ? queue_of(dst, sim::TrafficClass::kData)
                              : control);
}

int VoqBank::occupancy(int dst) const {
  OSMOSIS_REQUIRE(dst >= 0 && dst < outputs_, "dst out of range: " << dst);
  const std::size_t control = queue_of(dst, sim::TrafficClass::kControl);
  return static_cast<int>(cells_.size(control) + cells_.size(control + 1));
}

}  // namespace osmosis::sw
