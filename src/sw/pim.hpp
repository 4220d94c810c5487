#pragma once
// Parallel Iterative Matching (Anderson et al.): like iSLIP but with
// uniformly random grant and accept choices instead of round-robin
// pointers. Included as the classical randomized reference; its
// convergence in ~log2(N) iterations is the origin of the paper's
// "log2 N iterations" rule.

#include "src/sim/rng.hpp"
#include "src/sw/scheduler.hpp"

namespace osmosis::sw {

class PimScheduler final : public Scheduler {
 public:
  PimScheduler(int ports, int receivers, int iterations, sim::Rng rng);

  std::string name() const override;
  const std::vector<Grant>& tick() override;

  int iterations() const { return iterations_; }

  void save_state(ckpt::Sink& s) const override {
    Scheduler::save_state(s);
    ckpt::field(s, const_cast<sim::Rng&>(rng_));
  }
  void load_state(ckpt::Source& s) override {
    Scheduler::load_state(s);
    ckpt::field(s, rng_);
  }

 private:
  void run_iteration(IslipIteration::Matching& m);

  int iterations_;
  sim::Rng rng_;
  IslipIteration::Matching matching_;
  // scratch, sized at construction
  std::vector<int> cand_list_;                     // one output's inputs
  std::vector<std::vector<int>> grants_to_input_;  // offers per input
  std::vector<int> granted_inputs_;                // first-offer order
};

}  // namespace osmosis::sw
