#include "src/sw/islip.hpp"

#include <algorithm>
#include <sstream>

#include "src/util/log.hpp"
#include "src/util/units.hpp"

namespace osmosis::sw {

// ---- DemandState (defined here with the engine it serves) ------------------

DemandState::DemandState(int ports)
    : ports_(ports),
      residual_(static_cast<std::size_t>(ports) * static_cast<std::size_t>(ports),
                0),
      avail_(static_cast<std::size_t>(ports), PortSet(ports)),
      empty_(ports),
      blocked_(static_cast<std::size_t>(ports), 0),
      input_blocked_(static_cast<std::size_t>(ports), 0) {
  OSMOSIS_REQUIRE(ports_ >= 1, "need at least one port");
}

void DemandState::add_request(int in, int out) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_ && out >= 0 && out < ports_,
                  "request (" << in << "," << out << ") out of range");
  auto& r = residual_[static_cast<std::size_t>(index(in, out))];
  if (r == 0 && !input_blocked_[static_cast<std::size_t>(in)])
    avail_[static_cast<std::size_t>(out)].set(in);
  ++r;
  ++total_;
}

void DemandState::reserve(int in, int out) {
  auto& r = residual_[static_cast<std::size_t>(index(in, out))];
  OSMOSIS_REQUIRE(r > 0, "reserve without residual demand (" << in << ","
                                                             << out << ")");
  --r;
  --total_;
  if (r == 0) avail_[static_cast<std::size_t>(out)].clear(in);
}

void DemandState::cancel_request(int in, int out) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_ && out >= 0 && out < ports_,
                  "cancel (" << in << "," << out << ") out of range");
  auto& r = residual_[static_cast<std::size_t>(index(in, out))];
  OSMOSIS_REQUIRE(r > 0, "cancel without residual demand (" << in << ","
                                                            << out << ")");
  --r;
  --total_;
  if (r == 0) avail_[static_cast<std::size_t>(out)].clear(in);
}

int DemandState::residual(int in, int out) const {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_ && out >= 0 && out < ports_,
                  "query out of range");
  return static_cast<int>(residual_[static_cast<std::size_t>(index(in, out))]);
}

const PortSet& DemandState::candidates(int out) const {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  if (blocked_[static_cast<std::size_t>(out)]) return empty_;
  return avail_[static_cast<std::size_t>(out)];
}

void DemandState::block_output(int out) {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  blocked_[static_cast<std::size_t>(out)] = 1;
}

void DemandState::unblock_output(int out) {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  blocked_[static_cast<std::size_t>(out)] = 0;
}

bool DemandState::blocked(int out) const {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  return blocked_[static_cast<std::size_t>(out)] != 0;
}

void DemandState::block_input(int in) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_, "input out of range");
  if (input_blocked_[static_cast<std::size_t>(in)]) return;
  input_blocked_[static_cast<std::size_t>(in)] = 1;
  for (int out = 0; out < ports_; ++out)
    avail_[static_cast<std::size_t>(out)].clear(in);
}

void DemandState::unblock_input(int in) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_, "input out of range");
  if (!input_blocked_[static_cast<std::size_t>(in)]) return;
  input_blocked_[static_cast<std::size_t>(in)] = 0;
  for (int out = 0; out < ports_; ++out)
    if (residual_[static_cast<std::size_t>(index(in, out))] > 0)
      avail_[static_cast<std::size_t>(out)].set(in);
}

bool DemandState::input_blocked(int in) const {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_, "input out of range");
  return input_blocked_[static_cast<std::size_t>(in)] != 0;
}

// ---- IslipIteration ----------------------------------------------------------

void IslipIteration::Matching::reset(int ports, int receivers) {
  if (input_free.size() != ports) input_free = PortSet(ports);
  input_free.set_all();
  capacity.assign(static_cast<std::size_t>(ports), receivers);
  matches.clear();
  matches.reserve(static_cast<std::size_t>(ports));
  iterations_run = 0;
}

void IslipIteration::Matching::reset(int ports,
                                     const std::vector<int>& capacities) {
  OSMOSIS_REQUIRE(static_cast<int>(capacities.size()) == ports,
                  "capacity vector size mismatch");
  if (input_free.size() != ports) input_free = PortSet(ports);
  input_free.set_all();
  capacity = capacities;
  matches.clear();
  matches.reserve(static_cast<std::size_t>(ports));
  iterations_run = 0;
}

IslipIteration::IslipIteration(int ports)
    : ports_(ports),
      grant_ptr_(static_cast<std::size_t>(ports), 0),
      accept_ptr_(static_cast<std::size_t>(ports), 0),
      cands_(ports),
      best_offer_(static_cast<std::size_t>(ports), -1) {
  OSMOSIS_REQUIRE(ports_ >= 1, "need at least one port");
  granted_inputs_.reserve(static_cast<std::size_t>(ports));
}

void IslipIteration::run(DemandState& primary, DemandState* shared,
                         Matching& m, bool update_pointers) {
  granted_inputs_.clear();

  // Grant phase: each output with remaining receiver capacity offers up
  // to `capacity` grants, scanning inputs round-robin from its pointer.
  // An input keeps only its best offer so far: the one closest (in
  // round-robin order) to its accept pointer, which is the offer the
  // accept phase takes. Distinct outputs never tie on that distance.
  for (int out = 0; out < ports_; ++out) {
    int cap = m.capacity[static_cast<std::size_t>(out)];
    if (cap <= 0) continue;
    cands_ = primary.candidates(out);
    if (shared != nullptr) cands_ &= shared->candidates(out);
    cands_ &= m.input_free;
    int from = grant_ptr_[static_cast<std::size_t>(out)];
    while (cap > 0) {
      const int in = cands_.next_circular(from);
      if (in < 0) break;
      int& best = best_offer_[static_cast<std::size_t>(in)];
      if (best < 0) {
        granted_inputs_.push_back(in);
        best = out;
      } else if (accept_distance(in, out) < accept_distance(in, best)) {
        best = out;
      }
      cands_.clear(in);  // one grant per (output, input) pair per round
      --cap;
      from = (in + 1) % ports_;
    }
  }

  // Accept phase: each granted input accepts its best offer, in
  // first-offer order.
  for (const int in : granted_inputs_) {
    const int best = best_offer_[static_cast<std::size_t>(in)];
    best_offer_[static_cast<std::size_t>(in)] = -1;

    // Commit the match.
    m.input_free.clear(in);
    --m.capacity[static_cast<std::size_t>(best)];
    primary.reserve(in, best);
    if (shared != nullptr) shared->reserve(in, best);
    m.matches.push_back(Grant{in, best, 0});

    if (update_pointers) {
      grant_ptr_[static_cast<std::size_t>(best)] = (in + 1) % ports_;
      accept_ptr_[static_cast<std::size_t>(in)] = (best + 1) % ports_;
    }
  }
  ++m.iterations_run;
}

// ---- Scheduler base -----------------------------------------------------------

Scheduler::Scheduler(int ports, int receivers)
    : demand_(ports),
      receivers_(receivers),
      output_capacity_(static_cast<std::size_t>(ports), receivers),
      receiver_used_(static_cast<std::size_t>(ports), 0) {
  OSMOSIS_REQUIRE(receivers_ >= 1, "need at least one receiver per output");
  grants_.reserve(static_cast<std::size_t>(ports));
}

void Scheduler::set_output_capacity(int out, int capacity) {
  OSMOSIS_REQUIRE(out >= 0 && out < ports(), "output out of range");
  OSMOSIS_REQUIRE(capacity >= 0 && capacity <= receivers_,
                  "capacity must be in [0, receivers]");
  output_capacity_[static_cast<std::size_t>(out)] = capacity;
  // A zero-capacity output is equivalent to a blocked one; keep the
  // demand masks consistent so pipelined matchings stop considering it.
  if (capacity == 0)
    demand_.block_output(out);
  else if (demand_.blocked(out))
    demand_.unblock_output(out);
  on_output_capacity_changed(out, capacity);
}

int Scheduler::output_capacity(int out) const {
  OSMOSIS_REQUIRE(out >= 0 && out < ports(), "output out of range");
  return output_capacity_[static_cast<std::size_t>(out)];
}

void Scheduler::number_receivers() {
  std::fill(receiver_used_.begin(), receiver_used_.end(), 0);
  for (auto& g : grants_) {
    g.receiver = receiver_used_[static_cast<std::size_t>(g.output)]++;
    OSMOSIS_REQUIRE(g.receiver < receivers_,
                    "output " << g.output << " over-matched: receiver "
                              << g.receiver << " of " << receivers_);
  }
}

void Scheduler::save_state(ckpt::Sink& s) const {
  auto* self = const_cast<Scheduler*>(this);
  ckpt::field(s, self->demand_);
  ckpt::field(s, self->output_capacity_);
}

void Scheduler::load_state(ckpt::Source& s) {
  ckpt::field(s, demand_);
  ckpt::field(s, output_capacity_);
}

// ---- IslipScheduler --------------------------------------------------------------

IslipScheduler::IslipScheduler(int ports, int receivers, int iterations)
    : Scheduler(ports, receivers),
      iterations_(iterations > 0 ? iterations : util::ceil_log2(
                                                    static_cast<std::uint64_t>(
                                                        ports))),
      engine_(ports) {
  if (iterations_ < 1) iterations_ = 1;  // 1-port switch edge case
  matching_.reset(ports, receivers);
}

std::string IslipScheduler::name() const {
  std::ostringstream oss;
  oss << "iSLIP(" << iterations_ << ")";
  return oss.str();
}

const std::vector<Grant>& IslipScheduler::tick() {
  matching_.reset(ports(), output_capacity_);
  for (int it = 0; it < iterations_; ++it)
    engine_.run(demand_, nullptr, matching_, /*update_pointers=*/it == 0);
  grants_.swap(matching_.matches);
  number_receivers();
  return grants_;
}

}  // namespace osmosis::sw
