#pragma once
// Iterative iSLIP scheduler [17]-style: k grant/accept iterations
// executed within a single cell cycle. This is the *idealized* central
// scheduler — it assumes hardware fast enough to run log2(N) iterations
// inside one 51.2 ns cycle, which the paper argues is not feasible at 64
// ports / 40 Gb/s. It serves as the throughput reference against which
// the pipelined variants are judged.

#include "src/sw/scheduler.hpp"

namespace osmosis::sw {

class IslipScheduler final : public Scheduler {
 public:
  /// `iterations` = 0 picks ceil(log2(ports)), the classic rule.
  IslipScheduler(int ports, int receivers, int iterations);

  std::string name() const override;

  const std::vector<Grant>& tick() override;

  int iterations() const { return iterations_; }

  void save_state(ckpt::Sink& s) const override {
    Scheduler::save_state(s);
    ckpt::field(s, const_cast<IslipIteration&>(engine_));
  }
  void load_state(ckpt::Source& s) override {
    Scheduler::load_state(s);
    ckpt::field(s, engine_);
  }

 private:
  int iterations_;
  IslipIteration engine_;
  IslipIteration::Matching matching_;
};

}  // namespace osmosis::sw
