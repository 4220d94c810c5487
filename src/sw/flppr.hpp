#pragma once
// FLPPR — Fast Low-latency Parallel Pipelined aRbitration [22], the
// paper's key scheduler novelty (§V, §VI.B, Fig. 6).
//
// Like the prior art, K = log2(N) sub-schedulers each build a matching
// over K cycles (one grant/accept iteration per cycle) and issue in
// staggered rotation, so the crossbar still gets a fresh K-iteration
// matching every cycle. The difference: sub-schedulers do NOT work from
// a start-of-window snapshot — every cycle, every in-flight
// sub-scheduler arbitrates over the *live* residual demand, and the
// sub-schedulers are served in order of time-to-issue (soonest first).
// A request that arrives in an empty switch is therefore picked up by
// the sub-scheduler issuing THAT cycle and granted immediately: a
// single-cell request-to-grant latency at light to moderate load,
// versus log2(N) cycles for the snapshot pipeline. Under heavy load the
// matchings still accumulate K iterations, so throughput matches
// iterative iSLIP.

#include <vector>

#include "src/sw/scheduler.hpp"

namespace osmosis::sw {

class FlpprScheduler final : public Scheduler {
 public:
  /// `depth` = 0 picks ceil(log2(ports)) parallel sub-schedulers.
  FlpprScheduler(int ports, int receivers, int depth,
                 FlpprPolicy policy = FlpprPolicy::kEarliestFirst);

  std::string name() const override;
  const std::vector<Grant>& tick() override;

  int depth() const { return depth_; }

  /// In-flight sub-scheduler matchings and arbiter pointers are exactly
  /// the pipeline state the checkpoint contract calls out; depth/phase
  /// are configuration and only re-checked.
  void save_state(ckpt::Sink& s) const override {
    Scheduler::save_state(s);
    auto* self = const_cast<FlpprScheduler*>(this);
    ckpt::field(s, self->t_);
    std::uint64_t n = subs_.size();
    ckpt::field(s, n);
    for (auto& sub : self->subs_) {
      ckpt::field(s, sub.engine);
      ckpt::field(s, sub.matching);
    }
  }
  void load_state(ckpt::Source& s) override {
    Scheduler::load_state(s);
    ckpt::field(s, t_);
    std::uint64_t n = 0;
    ckpt::field(s, n);
    if (n != subs_.size())
      throw ckpt::Error("FLPPR pipeline depth mismatch in checkpoint");
    for (auto& sub : subs_) {
      ckpt::field(s, sub.engine);
      ckpt::field(s, sub.matching);
    }
  }

 protected:
  void on_output_capacity_changed(int out, int capacity) override;

 private:
  struct Sub {
    IslipIteration engine;
    IslipIteration::Matching matching;
    int phase;  // issues when t % depth == phase

    Sub(int ports, int phase_in) : engine(ports), phase(phase_in) {}
  };

  int depth_;
  FlpprPolicy policy_;
  std::vector<Sub> subs_;
  std::uint64_t t_ = 0;
};

}  // namespace osmosis::sw
