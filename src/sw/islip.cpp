#include "src/sw/islip.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "src/util/log.hpp"
#include "src/util/units.hpp"

namespace osmosis::sw {

// ---- DemandState (defined here with the engine it serves) ------------------

namespace {

// Checked before any member is sized: ports_ is initialized first.
int checked_ports(int ports) {
  OSMOSIS_REQUIRE(ports >= 1, "need at least one port");
  OSMOSIS_REQUIRE(ports <= DemandState::kMaxPorts,
                  ports << " ports exceed the " << DemandState::kMaxPorts
                        << " one demand summary word covers");
  return ports;
}

std::uint64_t word_bit(int in) { return std::uint64_t{1} << (in >> 6); }

}  // namespace

DemandState::DemandState(int ports)
    : ports_(checked_ports(ports)),
      residual_(static_cast<std::size_t>(ports) * static_cast<std::size_t>(ports),
                0),
      avail_(static_cast<std::size_t>(ports), PortSet(ports)),
      empty_(ports),
      blocked_(static_cast<std::size_t>(ports), 0),
      input_blocked_(static_cast<std::size_t>(ports), 0),
      summary_(static_cast<std::size_t>(ports), 0),
      demand_outputs_(ports) {}

void DemandState::mark(int in, int out) {
  const auto o = static_cast<std::size_t>(out);
  avail_[o].set(in);
  summary_[o] |= word_bit(in);
  if (!blocked_[o]) demand_outputs_.set(out);
}

void DemandState::unmark(int in, int out) {
  const auto o = static_cast<std::size_t>(out);
  avail_[o].clear(in);
  if (avail_[o].word(in >> 6) != 0) return;
  summary_[o] &= ~word_bit(in);
  if (summary_[o] == 0) demand_outputs_.clear(out);
}

void DemandState::rebuild_views() {
  demand_outputs_.clear_all();
  for (int out = 0; out < ports_; ++out) {
    const auto o = static_cast<std::size_t>(out);
    summary_[o] = 0;
    for (int w = 0; w < avail_[o].word_count(); ++w)
      if (avail_[o].word(w) != 0) summary_[o] |= std::uint64_t{1} << w;
    if (summary_[o] != 0 && !blocked_[o]) demand_outputs_.set(out);
  }
}

void DemandState::add_request(int in, int out) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_ && out >= 0 && out < ports_,
                  "request (" << in << "," << out << ") out of range");
  auto& r = residual_[static_cast<std::size_t>(index(in, out))];
  if (r == 0 && !input_blocked_[static_cast<std::size_t>(in)]) mark(in, out);
  ++r;
  ++total_;
}

void DemandState::reserve(int in, int out) {
  auto& r = residual_[static_cast<std::size_t>(index(in, out))];
  OSMOSIS_REQUIRE(r > 0, "reserve without residual demand (" << in << ","
                                                             << out << ")");
  --r;
  --total_;
  if (r == 0) unmark(in, out);
}

void DemandState::cancel_request(int in, int out) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_ && out >= 0 && out < ports_,
                  "cancel (" << in << "," << out << ") out of range");
  auto& r = residual_[static_cast<std::size_t>(index(in, out))];
  OSMOSIS_REQUIRE(r > 0, "cancel without residual demand (" << in << ","
                                                            << out << ")");
  --r;
  --total_;
  if (r == 0) unmark(in, out);
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

std::uint64_t DemandState::summary(int out) const {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  const auto o = static_cast<std::size_t>(out);
  return blocked_[o] ? 0 : summary_[o];
}

void DemandState::block_output(int out) {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  blocked_[static_cast<std::size_t>(out)] = 1;
  demand_outputs_.clear(out);
}

void DemandState::unblock_output(int out) {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  blocked_[static_cast<std::size_t>(out)] = 0;
  if (summary_[static_cast<std::size_t>(out)] != 0) demand_outputs_.set(out);
}

bool DemandState::blocked(int out) const {
  OSMOSIS_REQUIRE(out >= 0 && out < ports_, "output out of range");
  return blocked_[static_cast<std::size_t>(out)] != 0;
}

void DemandState::block_input(int in) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_, "input out of range");
  if (input_blocked_[static_cast<std::size_t>(in)]) return;
  input_blocked_[static_cast<std::size_t>(in)] = 1;
  for (int out = 0; out < ports_; ++out) unmark(in, out);
}

void DemandState::unblock_input(int in) {
  OSMOSIS_REQUIRE(in >= 0 && in < ports_, "input out of range");
  if (!input_blocked_[static_cast<std::size_t>(in)]) return;
  input_blocked_[static_cast<std::size_t>(in)] = 0;
  for (int out = 0; out < ports_; ++out)
    if (residual_[static_cast<std::size_t>(index(in, out))] > 0)
      mark(in, out);
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
      best_offer_(static_cast<std::size_t>(ports), -1) {
  OSMOSIS_REQUIRE(ports_ >= 1, "need at least one port");
  granted_inputs_.reserve(static_cast<std::size_t>(ports));
}

void IslipIteration::grant(const DemandState& primary,
                           const DemandState* shared,
                           const PortSet& input_free, int out, int cap) {
  const PortSet& cands = primary.candidates(out);
  const PortSet* also = shared != nullptr ? &shared->candidates(out) : nullptr;
  std::uint64_t marked = primary.summary(out);
  if (shared != nullptr) marked &= shared->summary(out);

  // Offers to the grantable inputs of word `w` under `mask`, lowest
  // first, while capacity lasts.
  const auto offer_word = [&](int w, std::uint64_t mask) {
    std::uint64_t bits = cands.word(w) & input_free.word(w) & mask;
    if (also != nullptr) bits &= also->word(w);
    for (; bits != 0 && cap > 0; bits &= bits - 1, --cap) {
      const int in = w * 64 + std::countr_zero(bits);
      int& best = best_offer_[static_cast<std::size_t>(in)];
      if (best < 0) {
        granted_inputs_.push_back(in);
        best = out;
      } else if (accept_distance(in, out) < accept_distance(in, best)) {
        best = out;
      }
    }
  };

  // Round-robin order from the pointer, one marked word at a time: the
  // pointer's own word from the pointer up, the other marked words in
  // circular order (bit k of `ring` is word from_word + k, mod 64), and
  // last the pointer's word below the pointer.
  const int from = grant_ptr_[static_cast<std::size_t>(out)];
  const int from_word = from >> 6;
  const std::uint64_t from_up = ~std::uint64_t{0} << (from & 63);
  const std::uint64_t ring = std::rotr(marked, from_word);
  if (ring & 1) offer_word(from_word, from_up);
  for (std::uint64_t r = ring & ~std::uint64_t{1}; r != 0 && cap > 0;
       r &= r - 1)
    offer_word((from_word + std::countr_zero(r)) & 63, ~std::uint64_t{0});
  if ((ring & 1) && cap > 0) offer_word(from_word, ~from_up);
}

void IslipIteration::run(DemandState& primary, DemandState* shared,
                         Matching& m, bool update_pointers) {
  granted_inputs_.clear();

  // Grant phase: each output with demand and remaining receiver capacity
  // offers up to `capacity` grants, scanning inputs round-robin from its
  // pointer, outputs in ascending order. An input keeps only its best
  // offer so far: the one closest (in round-robin order) to its accept
  // pointer, which is the offer the accept phase takes. Distinct outputs
  // never tie on that distance.
  const PortSet& outputs = primary.outputs_with_demand();
  for (int ow = 0; ow < outputs.word_count(); ++ow) {
    std::uint64_t outs = outputs.word(ow);
    if (shared != nullptr) outs &= shared->outputs_with_demand().word(ow);
    for (; outs != 0; outs &= outs - 1) {
      const int out = ow * 64 + std::countr_zero(outs);
      const int cap = m.capacity[static_cast<std::size_t>(out)];
      if (cap > 0) grant(primary, shared, m.input_free, out, cap);
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
  for (auto& g : grants_) {
    g.receiver = receiver_used_[static_cast<std::size_t>(g.output)]++;
    OSMOSIS_REQUIRE(g.receiver < receivers_,
                    "output " << g.output << " over-matched: receiver "
                              << g.receiver << " of " << receivers_);
  }
  // Leave the counters zeroed for the next tick: only granted outputs
  // were touched.
  for (const auto& g : grants_)
    receiver_used_[static_cast<std::size_t>(g.output)] = 0;
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
  // A round that adds no match changes no demand, capacity, free input or
  // pointer, so every later round would add none either: stop there.
  for (int it = 0; it < iterations_; ++it) {
    const std::size_t matched = matching_.matches.size();
    engine_.run(demand_, nullptr, matching_, /*update_pointers=*/it == 0);
    if (matching_.matches.size() == matched) break;
  }
  grants_.swap(matching_.matches);
  number_receivers();
  return grants_;
}

}  // namespace osmosis::sw
