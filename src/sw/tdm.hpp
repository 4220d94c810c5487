#pragma once
// Demand-oblivious time-division scheduler: in slot t, input i is wired
// to output (i + t) mod N. This is the connection pattern of the
// load-balanced Birkhoff-von-Neumann switch stages (§VI.D, [24]); as a
// central scheduler it shows why demand-aware matching is needed (an
// unloaded N-port TDM switch has N/2 average latency).

#include "src/sw/scheduler.hpp"

namespace osmosis::sw {

class TdmScheduler final : public Scheduler {
 public:
  TdmScheduler(int ports, int receivers);

  std::string name() const override { return "TDM"; }
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
};

}  // namespace osmosis::sw
