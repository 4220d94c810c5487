#include "src/sw/wfa.hpp"

namespace osmosis::sw {

WfaScheduler::WfaScheduler(int ports, int receivers)
    : Scheduler(ports, receivers),
      capacity_(static_cast<std::size_t>(ports), 0),
      input_free_(ports) {}

const std::vector<Grant>& WfaScheduler::tick() {
  const int n = ports();
  grants_.clear();
  capacity_ = output_capacity_;
  input_free_.set_all();

  // Sweep diagonals d, d+1, ... (mod N), rotating the privileged
  // diagonal every cycle so no (input, output) pair is structurally
  // favoured.
  const int start = static_cast<int>(t_ % static_cast<std::uint64_t>(n));
  for (int k = 0; k < n; ++k) {
    const int d = (start + k) % n;
    for (int in = 0; in < n; ++in) {
      if (!input_free_.test(in)) continue;
      const int out = (in + d) % n;
      if (capacity_[static_cast<std::size_t>(out)] <= 0) continue;
      if (!demand_.candidates(out).test(in)) continue;
      input_free_.clear(in);
      --capacity_[static_cast<std::size_t>(out)];
      demand_.reserve(in, out);
      grants_.push_back(Grant{in, out, 0});
    }
  }
  ++t_;
  number_receivers();
  return grants_;
}

}  // namespace osmosis::sw
