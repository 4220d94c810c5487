#include "src/sw/flppr.hpp"

#include <algorithm>
#include <sstream>

#include "src/util/log.hpp"
#include "src/util/units.hpp"

namespace osmosis::sw {

FlpprScheduler::FlpprScheduler(int ports, int receivers, int depth,
                               FlpprPolicy policy)
    : Scheduler(ports, receivers),
      depth_(depth > 0 ? depth
                       : util::ceil_log2(static_cast<std::uint64_t>(ports))),
      policy_(policy) {
  if (depth_ < 1) depth_ = 1;
  subs_.reserve(static_cast<std::size_t>(depth_));
  for (int s = 0; s < depth_; ++s) {
    subs_.emplace_back(ports, s);
    subs_.back().matching.reset(ports, receivers);
  }
}

void FlpprScheduler::on_output_capacity_changed(int out, int capacity) {
  for (auto& sub : subs_) {
    int matched = 0;
    for (const auto& m : sub.matching.matches) matched += m.output == out;
    auto& cap = sub.matching.capacity[static_cast<std::size_t>(out)];
    cap = std::min(cap, std::max(0, capacity - matched));
  }
}

std::string FlpprScheduler::name() const {
  std::ostringstream oss;
  oss << "FLPPR(depth=" << depth_
      << (policy_ == FlpprPolicy::kFixedOrder ? ",fixed-order" : "") << ")";
  return oss.str();
}

const std::vector<Grant>& FlpprScheduler::tick() {
  const int now_phase =
      static_cast<int>(t_ % static_cast<std::uint64_t>(depth_));

  // kEarliestFirst (the paper's design): serve sub-schedulers
  // soonest-to-issue first, so a fresh request is matched by the
  // earliest grant opportunity — the core FLPPR idea. kFixedOrder
  // (ablation): serve them in fixed index order regardless of issue
  // proximity; requests then land in arbitrary pipeline positions.
  for (int k = 0; k < depth_; ++k) {
    const int phase = policy_ == FlpprPolicy::kEarliestFirst
                          ? (now_phase + k) % depth_
                          : k;  // fixed order, blind to issue proximity
    Sub& sub = subs_[static_cast<std::size_t>(phase)];
    const int dist = (phase - now_phase + depth_) % depth_;
    sub.engine.run(demand_, nullptr, sub.matching,
                   /*update_pointers=*/sub.matching.iterations_run == 0);
    if (dist == 0) {
      // This sub-scheduler's window ends now: issue and start over.
      grants_.swap(sub.matching.matches);
      sub.matching.reset(ports(), output_capacity_);
    }
  }
  ++t_;
  number_receivers();
  return grants_;
}

}  // namespace osmosis::sw
