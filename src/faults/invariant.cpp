#include "src/faults/invariant.hpp"

#include <algorithm>

namespace osmosis::faults {

void RecoveryTracker::on_fault(std::uint64_t t, const std::string& key,
                               std::uint64_t baseline_backlog) {
  (void)t;
  ++faults_;
  open_[key] = Open{baseline_backlog, 0, false};
}

void RecoveryTracker::on_repair(std::uint64_t t, const std::string& key) {
  auto it = open_.find(key);
  if (it == open_.end()) return;
  it->second.repaired = true;
  it->second.repaired_at = t;
  ++repaired_;
}

void RecoveryTracker::observe(std::uint64_t t, std::uint64_t backlog) {
  for (auto it = open_.begin(); it != open_.end();) {
    const Open& o = it->second;
    if (o.repaired && backlog <= o.baseline) {
      const double dt = static_cast<double>(t - o.repaired_at);
      ++recovered_;
      sum_recovery_ += dt;
      max_recovery_ = std::max(max_recovery_, dt);
      recovery_hist_.add(dt);
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace osmosis::faults
