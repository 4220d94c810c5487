#pragma once
// Wavefront arbiter (WFA): the classic hardware-friendly maximal
// matcher that sweeps the request matrix along diagonals — all cells of
// a diagonal are independent, so an N-port arbitration finishes in N
// combinational "wavefront" steps with no iteration loops or pointers.
// Included as the third arbitration family (after round-robin iSLIP and
// randomized PIM) for the scheduler comparison; the starting diagonal
// rotates each cell cycle for fairness.

#include "src/sw/scheduler.hpp"

namespace osmosis::sw {

class WfaScheduler final : public Scheduler {
 public:
  WfaScheduler(int ports, int receivers);

  std::string name() const override { return "WFA"; }
  const std::vector<Grant>& tick() override;

  void save_state(ckpt::Sink& s) const override {
    Scheduler::save_state(s);
    ckpt::field(s, const_cast<std::uint64_t&>(t_));
  }
  void load_state(ckpt::Source& s) override {
    Scheduler::load_state(s);
    ckpt::field(s, t_);
  }

 private:
  std::uint64_t t_ = 0;
  // tick() scratch, sized at construction
  std::vector<int> capacity_;  // accepts left per output
  PortSet input_free_;         // inputs not yet matched
};

}  // namespace osmosis::sw
