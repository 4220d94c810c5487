#include "src/sw/pim.hpp"

#include <bit>
#include <sstream>

#include "src/util/log.hpp"
#include "src/util/units.hpp"

namespace osmosis::sw {

PimScheduler::PimScheduler(int ports, int receivers, int iterations,
                           sim::Rng rng)
    : Scheduler(ports, receivers),
      iterations_(iterations > 0
                      ? iterations
                      : util::ceil_log2(static_cast<std::uint64_t>(ports))),
      rng_(rng),
      grants_to_input_(static_cast<std::size_t>(ports)) {
  if (iterations_ < 1) iterations_ = 1;
  matching_.reset(ports, receivers);
  cand_list_.reserve(static_cast<std::size_t>(ports));
  // An input gets at most one offer per output per iteration.
  for (auto& offers : grants_to_input_)
    offers.reserve(static_cast<std::size_t>(ports));
  granted_inputs_.reserve(static_cast<std::size_t>(ports));
}

std::string PimScheduler::name() const {
  std::ostringstream oss;
  oss << "PIM(" << iterations_ << ")";
  return oss.str();
}

void PimScheduler::run_iteration(IslipIteration::Matching& m) {
  granted_inputs_.clear();

  // Grant phase: each output with demand and capacity picks random
  // requesting, still-free inputs. Only the outputs with demand and the
  // words their summary marks are visited; an output left out would
  // shuffle an empty list, which draws nothing from the RNG.
  const PortSet& outputs = demand_.outputs_with_demand();
  for (int ow = 0; ow < outputs.word_count(); ++ow) {
    for (std::uint64_t outs = outputs.word(ow); outs != 0; outs &= outs - 1) {
      const int out = ow * 64 + std::countr_zero(outs);
      const int cap = m.capacity[static_cast<std::size_t>(out)];
      if (cap <= 0) continue;
      const PortSet& cands = demand_.candidates(out);
      cand_list_.clear();
      for (std::uint64_t marked = demand_.summary(out); marked != 0;
           marked &= marked - 1) {
        const int w = std::countr_zero(marked);
        for (std::uint64_t bits = cands.word(w) & m.input_free.word(w);
             bits != 0; bits &= bits - 1)
          cand_list_.push_back(w * 64 + std::countr_zero(bits));
      }
      rng_.shuffle(cand_list_);
      const int take =
          std::min<int>(cap, static_cast<int>(cand_list_.size()));
      for (int k = 0; k < take; ++k) {
        const int in = cand_list_[static_cast<std::size_t>(k)];
        auto& offers = grants_to_input_[static_cast<std::size_t>(in)];
        if (offers.empty()) granted_inputs_.push_back(in);
        offers.push_back(out);
      }
    }
  }

  // Accept phase: each granted input accepts one random offer.
  for (const int in : granted_inputs_) {
    auto& offers = grants_to_input_[static_cast<std::size_t>(in)];
    const auto pick =
        rng_.uniform_int(static_cast<std::uint64_t>(offers.size()));
    const int out = offers[static_cast<std::size_t>(pick)];
    offers.clear();
    m.input_free.clear(in);
    --m.capacity[static_cast<std::size_t>(out)];
    demand_.reserve(in, out);
    m.matches.push_back(Grant{in, out, 0});
  }
  ++m.iterations_run;
}

const std::vector<Grant>& PimScheduler::tick() {
  matching_.reset(ports(), output_capacity_);
  for (int it = 0; it < iterations_; ++it) run_iteration(matching_);
  grants_.swap(matching_.matches);
  number_receivers();
  return grants_;
}

}  // namespace osmosis::sw
