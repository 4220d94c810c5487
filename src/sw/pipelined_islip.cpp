#include "src/sw/pipelined_islip.hpp"

#include <algorithm>
#include <sstream>

#include "src/util/log.hpp"
#include "src/util/units.hpp"

namespace osmosis::sw {

PipelinedIslipScheduler::PipelinedIslipScheduler(int ports, int receivers,
                                                 int depth)
    : Scheduler(ports, receivers),
      depth_(depth > 0 ? depth
                       : util::ceil_log2(static_cast<std::uint64_t>(ports))) {
  if (depth_ < 1) depth_ = 1;
  subs_.reserve(static_cast<std::size_t>(depth_));
  for (int s = 0; s < depth_; ++s) {
    subs_.emplace_back(ports, s);
    subs_.back().matching.reset(ports, receivers);
  }
}

void PipelinedIslipScheduler::on_output_capacity_changed(int out,
                                                         int capacity) {
  for (auto& sub : subs_) {
    int matched = 0;
    for (const auto& m : sub.matching.matches) matched += m.output == out;
    auto& cap = sub.matching.capacity[static_cast<std::size_t>(out)];
    cap = std::min(cap, std::max(0, capacity - matched));
  }
}

std::string PipelinedIslipScheduler::name() const {
  std::ostringstream oss;
  oss << "pipelined-iSLIP(depth=" << depth_ << ")";
  return oss.str();
}

const std::vector<Grant>& PipelinedIslipScheduler::tick() {
  grants_.clear();
  const int start_phase = static_cast<int>(t_ % static_cast<std::uint64_t>(depth_));

  for (auto& sub : subs_) {
    // A sub-scheduler re-snapshots the (residual) requests on its start
    // cycle; requests arriving later are invisible to it — this is the
    // pipeline-latency penalty of the prior art.
    if (sub.phase == start_phase) {
      sub.snapshot = demand_;
      sub.matching.reset(ports(), output_capacity_);
    }
    // One iteration per cycle. Matches consume residual demand from BOTH
    // the private snapshot and the live shared state, so concurrent
    // sub-schedulers never promise the same cell twice.
    sub.engine.run(sub.snapshot, &demand_, sub.matching,
                   /*update_pointers=*/sub.matching.iterations_run == 0);
    // After its depth-th iteration the matching is complete: issue.
    if (sub.matching.iterations_run == depth_) {
      grants_.insert(grants_.end(), sub.matching.matches.begin(),
                     sub.matching.matches.end());
      sub.matching.matches.clear();
    }
  }
  ++t_;
  number_receivers();
  return grants_;
}

}  // namespace osmosis::sw
