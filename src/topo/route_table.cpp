#include "src/topo/route_table.hpp"

#include "src/sim/rng.hpp"
#include "src/util/log.hpp"

namespace osmosis::topo {

namespace {
constexpr std::uint64_t kNoQuarantine = ~0ULL;
}  // namespace

SpineRouteTable::SpineRouteTable(int spines, std::uint64_t hysteresis_slots)
    : spines_(spines),
      hysteresis_slots_(hysteresis_slots),
      up_(static_cast<std::size_t>(spines), 1),
      quarantine_until_(static_cast<std::size_t>(spines), kNoQuarantine),
      usable_count_(spines) {
  OSMOSIS_REQUIRE(spines_ >= 1, "route table needs at least one spine");
}

void SpineRouteTable::fail(int spine) {
  OSMOSIS_REQUIRE(spine >= 0 && spine < spines_, "spine out of range");
  up_[static_cast<std::size_t>(spine)] = 0;
  quarantine_until_[static_cast<std::size_t>(spine)] = kNoQuarantine;
  recount();
}

void SpineRouteTable::revive(int spine, std::uint64_t now) {
  OSMOSIS_REQUIRE(spine >= 0 && spine < spines_, "spine out of range");
  up_[static_cast<std::size_t>(spine)] = 1;
  quarantine_until_[static_cast<std::size_t>(spine)] =
      now + hysteresis_slots_;
  recount();
}

bool SpineRouteTable::tick(std::uint64_t now) {
  bool admitted = false;
  for (int s = 0; s < spines_; ++s) {
    auto& q = quarantine_until_[static_cast<std::size_t>(s)];
    if (q != kNoQuarantine && q <= now && up_[static_cast<std::size_t>(s)]) {
      q = kNoQuarantine;
      admitted = true;
    }
  }
  if (admitted) recount();
  return admitted;
}

bool SpineRouteTable::usable(int spine) const {
  OSMOSIS_REQUIRE(spine >= 0 && spine < spines_, "spine out of range");
  return up_[static_cast<std::size_t>(spine)] != 0 &&
         quarantine_until_[static_cast<std::size_t>(spine)] == kNoQuarantine;
}

int SpineRouteTable::route(int dst) const {
  const int home = dst % spines_;
  if (usable(home)) return home;
  if (usable_count_ == 0) return home;
  // Hash-spread over the survivors, in ascending spine order so the
  // choice is independent of failure arrival order.
  std::uint64_t h = static_cast<std::uint64_t>(dst);
  const std::uint64_t pick = sim::splitmix64(h) %
                             static_cast<std::uint64_t>(usable_count_);
  std::uint64_t seen = 0;
  int last = home;
  for (int s = 0; s < spines_; ++s) {
    if (!usable(s)) continue;
    if (seen == pick) return s;
    last = s;
    ++seen;
  }
  return last;  // unreachable: pick < usable_count_
}

void SpineRouteTable::recount() {
  int n = 0;
  for (int s = 0; s < spines_; ++s)
    if (usable(s)) ++n;
  usable_count_ = n;
}

}  // namespace osmosis::topo
