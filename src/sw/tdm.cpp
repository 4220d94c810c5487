#include "src/sw/tdm.hpp"

namespace osmosis::sw {

TdmScheduler::TdmScheduler(int ports, int receivers)
    : Scheduler(ports, receivers) {}

const std::vector<Grant>& TdmScheduler::tick() {
  const int n = ports();
  grants_.clear();
  const int shift = static_cast<int>(t_ % static_cast<std::uint64_t>(n));
  for (int in = 0; in < n; ++in) {
    const int out = (in + shift) % n;
    if (demand_.blocked(out)) continue;
    if (demand_.residual(in, out) > 0) {
      demand_.reserve(in, out);
      grants_.push_back(Grant{in, out, 0});
    }
  }
  ++t_;
  number_receivers();
  return grants_;
}

}  // namespace osmosis::sw
