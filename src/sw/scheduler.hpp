#pragma once
// Central-scheduler framework for the bufferless crossbar (§III–§V).
//
// The scheduler mirrors every ingress adapter's VOQ occupancy through
// request messages (request(in, out) per arriving cell) and, once per
// cell cycle, emits a set of crossbar grants: a (partial) matching of
// inputs to (output, receiver) pairs. Residual demand bookkeeping is
// shared between the paper's FLPPR and the prior-art pipelined iSLIP so
// the two are compared on identical footing (Fig. 6 / Fig. 7).
//
// Remote flow control (§IV.B) plugs in through block_output(): the
// scheduler "only issues transmission grants for links/buffers that are
// available and performs the necessary bookkeeping".

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/sw/cell.hpp"
#include "src/sw/portset.hpp"

namespace osmosis::sw {

/// Residual (ungranted, unreserved) request counts per (input, output),
/// with per-output candidate masks for O(1) arbiter scans, and two views
/// of those masks that let an arbiter visit only outputs and words with
/// demand: a summary word per output and the set of outputs with any
/// candidate. Every mutator keeps the views current; they are derived,
/// so a checkpoint holds only the masks and a load rebuilds them.
class DemandState {
 public:
  /// One 64-bit summary word marks at most 64 words of 64 inputs.
  static constexpr int kMaxPorts = 64 * 64;

  explicit DemandState(int ports);

  int ports() const { return ports_; }

  /// A new cell arrived into VOQ (in -> out).
  void add_request(int in, int out);

  /// A matching reserved one cell of (in -> out); the residual shrinks
  /// so no other (sub)scheduler can promise the same cell.
  void reserve(int in, int out);

  /// A queued cell was withdrawn before any grant (adaptive re-steer
  /// moves a VOQ cell to a different output): the pending request must
  /// vanish with it or a later grant would hit an empty FIFO.
  void cancel_request(int in, int out);

  int residual(int in, int out) const;
  std::uint64_t total_residual() const { return total_; }

  /// Inputs with residual demand for `out` (excludes blocked outputs —
  /// the mask is empty while the output is blocked — and blocked inputs).
  const PortSet& candidates(int out) const;

  /// Bit w is set when word w of candidates(out) is non-zero.
  std::uint64_t summary(int out) const;

  /// Outputs whose candidates() is non-empty.
  const PortSet& outputs_with_demand() const { return demand_outputs_; }

  void block_output(int out);
  void unblock_output(int out);
  bool blocked(int out) const;

  /// Input-side masking: a dark ingress (e.g. a failed broadcast fiber
  /// takes all its WDM inputs off the crossbar) must receive no grants
  /// even though its VOQs report demand.
  void block_input(int in);
  void unblock_input(int in);
  bool input_blocked(int in) const;

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, residual_);
    ckpt::field(a, avail_);
    ckpt::field(a, blocked_);
    ckpt::field(a, input_blocked_);
    ckpt::field(a, total_);
    if constexpr (Ar::kLoading) {
      const auto n = static_cast<std::size_t>(ports_);
      bool ok = residual_.size() == n * n && avail_.size() == n &&
                blocked_.size() == n && input_blocked_.size() == n;
      for (const PortSet& set : avail_) ok = ok && set.size() == ports_;
      if (!ok)
        throw ckpt::Error("DemandState size inconsistent in checkpoint");
      rebuild_views();
    }
  }

 private:
  int index(int in, int out) const { return in * ports_ + out; }

  /// Adds `in` to / removes it from avail_[out], keeping the views.
  void mark(int in, int out);
  void unmark(int in, int out);
  void rebuild_views();

  int ports_;
  std::vector<std::uint32_t> residual_;
  std::vector<PortSet> avail_;     // per output: inputs with residual > 0,
                                   // minus blocked inputs
  PortSet empty_;                  // returned for blocked outputs
  std::vector<std::uint8_t> blocked_;
  std::vector<std::uint8_t> input_blocked_;
  std::uint64_t total_ = 0;
  // Derived views, not serialized: bit w of summary_[out] marks a
  // non-zero word w of avail_[out] (blocking aside); demand_outputs_ holds
  // the unblocked outputs whose summary is non-zero.
  std::vector<std::uint64_t> summary_;
  PortSet demand_outputs_;
};

/// One round-robin grant/accept iteration over a demand state — the
/// building block of iSLIP, pipelined iSLIP and FLPPR. Owns the
/// per-output grant pointers and per-input accept pointers.
class IslipIteration {
 public:
  explicit IslipIteration(int ports);

  /// Partial matching being accumulated for one future issue slot.
  struct Matching {
    PortSet input_free;             // inputs not yet matched
    std::vector<int> capacity;      // accepts left per output (receivers)
    std::vector<Grant> matches;     // receiver field filled at issue time
    int iterations_run = 0;

    void reset(int ports, int receivers);
    /// Reset with per-output capacities (failure-degraded outputs).
    void reset(int ports, const std::vector<int>& capacities);

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, input_free);
      ckpt::field(a, capacity);
      ckpt::field(a, matches);
      ckpt::field(a, iterations_run);
    }
  };

  /// Runs one grant/accept round. `primary` supplies and pays the
  /// demand; when `shared` is non-null a match additionally requires and
  /// consumes residual there (used by snapshot-based pipelined iSLIP so
  /// two sub-schedulers never promise the same cell).
  /// iSLIP pointer-update rule: pointers move only when
  /// `update_pointers` (callers pass true on a matching's first
  /// iteration), which is what desynchronizes the arbiters.
  /// The grant phase visits only outputs with demand in both states and,
  /// within each, only the words both summaries mark.
  void run(DemandState& primary, DemandState* shared, Matching& m,
           bool update_pointers);

  /// Only the round-robin pointers are state; the scratch below is
  /// sized at construction and left empty by every run().
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, grant_ptr_);
    ckpt::field(a, accept_ptr_);
  }

 private:
  /// Round-robin distance from input `in`'s accept pointer to `out`.
  int accept_distance(int in, int out) const {
    return (out - accept_ptr_[static_cast<std::size_t>(in)] + ports_) %
           ports_;
  }

  /// Offers output `out`'s up to `cap` grants: the first candidates in
  /// round-robin order from its grant pointer.
  void grant(const DemandState& primary, const DemandState* shared,
             const PortSet& input_free, int out, int cap);

  int ports_;
  std::vector<int> grant_ptr_;   // per output
  std::vector<int> accept_ptr_;  // per input
  // scratch, reused across calls
  std::vector<int> best_offer_;      // per input: best output so far; -1
  std::vector<int> granted_inputs_;  // inputs in first-offer order
};

/// Abstract central scheduler.
class Scheduler {
 public:
  Scheduler(int ports, int receivers);
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  int ports() const { return demand_.ports(); }
  int receivers() const { return receivers_; }

  /// One request per arriving cell (control-path message).
  void request(int in, int out) { demand_.add_request(in, out); }

  /// Withdraws one pending request (the matching cell left the VOQ, e.g.
  /// re-steered to a surviving spine). Only valid for immediate-issue
  /// schedulers: pipelined kinds may hold the demand inside an in-flight
  /// matching snapshot where it can no longer be recalled.
  void cancel(int in, int out) { demand_.cancel_request(in, out); }

  /// Remote-FC hooks (§IV.B). Unblocking never revives an output whose
  /// capacity was set to zero by failure handling.
  void block_output(int out) { demand_.block_output(out); }
  void unblock_output(int out) {
    if (output_capacity(out) > 0) demand_.unblock_output(out);
  }
  bool output_blocked(int out) const { return demand_.blocked(out); }

  /// Failure-handling hooks: mask a dark input entirely, or reduce an
  /// output's usable receiver count (a failed optical switching module
  /// leaves the egress reachable through its surviving receiver — the
  /// dual-receiver architecture's redundancy).
  void block_input(int in) { demand_.block_input(in); }
  void unblock_input(int in) { demand_.unblock_input(in); }
  void set_output_capacity(int out, int capacity);
  int output_capacity(int out) const;

  std::uint64_t outstanding() const { return demand_.total_residual(); }

  /// Advances one cell cycle and returns the grants for this cycle.
  /// Postconditions (checked by tests): each input appears at most once;
  /// each (output, receiver) appears at most once; every grant had
  /// residual demand when matched.
  /// The result lives in a buffer the scheduler owns: the reference stays
  /// valid until the next tick() or load_state(). A tick allocates no
  /// heap memory; every buffer it touches is sized at construction.
  virtual const std::vector<Grant>& tick() = 0;

  /// Checkpoint hooks: persist every bit of mutable scheduler state
  /// (residual demand, arbiter pointers, in-flight pipeline matchings,
  /// PRNG). Configuration (ports, receivers, depth) is supplied by
  /// rebuilding the scheduler from the same SchedulerConfig before
  /// load_state; the overrides verify structural agreement and throw
  /// ckpt::Error on mismatch.
  virtual void save_state(ckpt::Sink& s) const;
  virtual void load_state(ckpt::Source& s);

 protected:
  /// Assigns distinct receiver indices per output within grants_.
  void number_receivers();

  /// Pipelined schedulers keep in-flight partial matchings whose
  /// capacity arrays must shrink immediately when an output degrades;
  /// the base notification fires after set_output_capacity updates the
  /// bookkeeping.
  virtual void on_output_capacity_changed(int /*out*/, int /*capacity*/) {}

  DemandState demand_;
  int receivers_;
  std::vector<int> output_capacity_;  // usable receivers per output
  std::vector<Grant> grants_;         // tick() result, reserved to ports

 private:
  std::vector<int> receiver_used_;  // number_receivers() scratch
};

/// Scheduler families compared in the paper.
enum class SchedulerKind {
  kIslip,           // k iterations within one cycle (idealized hardware)
  kPim,             // parallel iterative matching, random arbiters
  kPipelinedIslip,  // prior art in Fig. 6: log2(N)-deep pipeline
  kFlppr,           // the paper's contribution [22]
  kTdm,             // demand-oblivious round-robin (BvN-style stage)
  kWfa,             // wavefront arbiter: diagonal-sweep maximal matching
};

/// FLPPR request-filing policy: how the parallel sub-schedulers are
/// served within a cell cycle ([22] §IV discusses filing variants).
enum class FlpprPolicy {
  // The paper's design: the sub-scheduler issuing soonest arbitrates
  // first, so fresh requests land in the earliest grant opportunity —
  // this is what produces the 1-cycle request-to-grant latency.
  kEarliestFirst,
  // Naive fixed service order (ablation): requests fill whichever
  // sub-scheduler happens to come first, spreading grants over the
  // whole pipeline window.
  kFixedOrder,
};

struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::kFlppr;
  int ports = 64;
  int receivers = 2;      // dual-receiver architecture by default
  int iterations = 0;     // 0 = ceil(log2(ports)), the paper's rule
  std::uint64_t seed = 1; // used by randomized schedulers (PIM)
  FlpprPolicy flppr_policy = FlpprPolicy::kEarliestFirst;
};

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& cfg);

}  // namespace osmosis::sw
