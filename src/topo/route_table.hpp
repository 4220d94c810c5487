#pragma once
// Fault-aware spine route table for the leaf/spine fabric (graceful
// degradation, DESIGN.md §13).
//
// Nominal routing is the paper's static d-mod-k spread: destination d
// homes on spine d mod m. When a spine fails, every flow homed there is
// deterministically re-spread over the surviving spines by hashing the
// destination — the same inputs always pick the same detour, so per-flow
// order survives modulo the one reshuffle the egress resequencer
// absorbs. Revival is damped by a hold-down (hysteresis): a spine that
// comes back is quarantined for `hysteresis_slots` before flows re-home,
// so a flapping spine cannot reshuffle routes on every transition. A
// re-failure during quarantine simply marks it down again.
//
// Pure bookkeeping, single-threaded, fully checkpointed via io_state.

#include <cstdint>
#include <vector>

#include "src/ckpt/archive.hpp"

namespace osmosis::topo {

class SpineRouteTable {
 public:
  SpineRouteTable() = default;
  SpineRouteTable(int spines, std::uint64_t hysteresis_slots);

  int spines() const { return spines_; }

  /// Spine went out of service (fault begin). Cancels any quarantine.
  void fail(int spine);

  /// Spine came back (fault repair). It stays quarantined — usable for
  /// no NEW routes — until `hysteresis_slots` have passed without a
  /// re-failure.
  void revive(int spine, std::uint64_t now);

  /// Per-slot hold-down expiry. Returns true when at least one
  /// quarantined spine was re-admitted this slot (routes re-home, so the
  /// caller may want to re-steer queued cells off dead uplinks).
  bool tick(std::uint64_t now);

  /// True when the spine may carry new cells (up and not quarantined).
  bool usable(int spine) const;
  int usable_count() const { return usable_count_; }

  /// Spine for destination `dst`: the d-mod-k home spine when usable,
  /// otherwise a hash-spread over the survivors. With zero survivors the
  /// (masked) home spine is returned — cells queue losslessly until
  /// capacity returns.
  int route(int dst) const;

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, up_);
    ckpt::field(a, quarantine_until_);
    ckpt::field(a, usable_count_);
    if constexpr (Ar::kLoading) {
      if (up_.size() != static_cast<std::size_t>(spines_))
        throw ckpt::Error("SpineRouteTable size inconsistent in checkpoint");
    }
  }

 private:
  void recount();

  int spines_ = 0;
  std::uint64_t hysteresis_slots_ = 0;
  std::vector<std::uint8_t> up_;
  // ~0 when not quarantined; otherwise the first slot the spine may be
  // used again.
  std::vector<std::uint64_t> quarantine_until_;
  int usable_count_ = 0;
};

}  // namespace osmosis::topo
