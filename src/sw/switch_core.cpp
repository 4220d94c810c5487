#include "src/sw/switch_core.hpp"

#include <algorithm>

namespace osmosis::sw {

SwitchCore::SwitchCore(int ports, SchedulerConfig sched)
    : sched_cfg_(sched) {
  sched_cfg_.ports = ports;
  sched_ = make_scheduler(sched_cfg_);
  voqs_.reserve(static_cast<std::size_t>(ports));
  for (int in = 0; in < ports; ++in) voqs_.emplace_back(in, ports);
  egress_.resize(static_cast<std::size_t>(ports));
}

std::uint64_t SwitchCore::absorb(SwitchCore& from) {
  std::uint64_t moved = 0;
  for (int in = 0; in < ports(); ++in) {
    VoqBank& src = from.voqs_[static_cast<std::size_t>(in)];
    for (int dst = 0; dst < ports(); ++dst) {
      while (src.occupancy(dst) > 0) {
        voqs_[static_cast<std::size_t>(in)].push(src.pop(dst));
        sched_->request(in, dst);
        ++moved;
      }
    }
  }
  return moved;
}

std::uint64_t SwitchCore::voq_backlog() const {
  std::uint64_t total = 0;
  for (const VoqBank& v : voqs_)
    total += static_cast<std::uint64_t>(v.total_occupancy());
  return total;
}

std::uint64_t SwitchCore::egress_backlog() const {
  std::uint64_t total = 0;
  for (const auto& line : egress_) total += line.size();
  return total;
}

std::uint64_t SwitchCore::max_bank_backlog() const {
  int deepest = 0;
  for (const VoqBank& v : voqs_)
    deepest = std::max(deepest, v.total_occupancy());
  return static_cast<std::uint64_t>(deepest);
}

int SwitchCore::max_voq_depth() const {
  int deepest = 0;
  for (const VoqBank& v : voqs_) deepest = std::max(deepest, v.max_depth_seen());
  return deepest;
}

int SwitchCore::max_egress_depth() const {
  std::size_t deepest = 0;
  for (const auto& line : egress_) deepest = std::max(deepest, line.size());
  return static_cast<int>(deepest);
}

}  // namespace osmosis::sw
