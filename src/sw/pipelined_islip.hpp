#pragma once
// Prior-art pipelined crossbar arbitration (the "previous state of the
// art" curve of Fig. 6; cf. [18]).
//
// The hardware constraint: one grant/accept iteration takes a full cell
// cycle (51.2 ns), yet good matchings need log2(N) iterations. Prior art
// deep-pipelines the scheduler: K = log2(N) sub-schedulers run
// staggered, each computing a complete K-iteration matching over K
// consecutive cycles from a *snapshot* of the requests taken when it
// started. One sub-scheduler finishes per cycle, so throughput is
// preserved — but every request waits for the full pipeline depth
// between request and grant, i.e. ~log2(N) cycles even in an empty
// switch. That latency is exactly what FLPPR removes.

#include <vector>

#include "src/sw/scheduler.hpp"

namespace osmosis::sw {

class PipelinedIslipScheduler final : public Scheduler {
 public:
  /// `depth` = 0 picks ceil(log2(ports)) sub-schedulers.
  PipelinedIslipScheduler(int ports, int receivers, int depth);

  std::string name() const override;
  const std::vector<Grant>& tick() override;

  int depth() const { return depth_; }

  void save_state(ckpt::Sink& s) const override {
    Scheduler::save_state(s);
    auto* self = const_cast<PipelinedIslipScheduler*>(this);
    ckpt::field(s, self->t_);
    std::uint64_t n = subs_.size();
    ckpt::field(s, n);
    for (auto& sub : self->subs_) {
      ckpt::field(s, sub.engine);
      ckpt::field(s, sub.matching);
      ckpt::field(s, sub.snapshot);
    }
  }
  void load_state(ckpt::Source& s) override {
    Scheduler::load_state(s);
    ckpt::field(s, t_);
    std::uint64_t n = 0;
    ckpt::field(s, n);
    if (n != subs_.size())
      throw ckpt::Error(
          "pipelined-iSLIP pipeline depth mismatch in checkpoint");
    for (auto& sub : subs_) {
      ckpt::field(s, sub.engine);
      ckpt::field(s, sub.matching);
      ckpt::field(s, sub.snapshot);
    }
  }

 protected:
  void on_output_capacity_changed(int out, int capacity) override;

 private:
  struct Sub {
    IslipIteration engine;
    IslipIteration::Matching matching;
    DemandState snapshot;  // requests visible to this sub-scheduler
    int phase;             // starts (re-snapshots) when t % depth == phase

    Sub(int ports, int phase_in)
        : engine(ports), snapshot(ports), phase(phase_in) {}
  };

  int depth_;
  std::vector<Sub> subs_;
  std::uint64_t t_ = 0;
};

}  // namespace osmosis::sw
