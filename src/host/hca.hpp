#pragma once
// Host Channel Adapter latency model (§III): the paper's contemporary
// target is 1 µs application to application, decomposed into the driver
// software stack and HCA at source and destination, the switch fabric
// elements, and time-of-flight in the cables — with < 500 ns allotted to
// the fabric including machine-room cabling.

#include <string>
#include <vector>

namespace osmosis::host {

/// One-way cable time of flight: half the 50 m machine-room budget [ns].
constexpr double kCableOneWayNs = 122.4;

/// Fixed (load-independent) latency contributions outside the fabric.
struct HcaParams {
  double sw_stack_ns = 250.0;     // driver/software stack, each side
  double hca_pipeline_ns = 120.0; // adapter DMA + segmentation pipeline,
                                  // each side
};

/// One line of the application-to-application latency budget.
struct AppLatencyItem {
  std::string name;
  double ns;
};

struct AppLatencyBudget {
  std::vector<AppLatencyItem> items;
  double total_ns() const;
};

/// Composes the §III budget: 2x (stack + HCA) + fabric switch latency +
/// cable time of flight. `fabric_switch_ns` is the measured traversal
/// (queueing + pipeline) and `cable_ns` the one-way machine-room cabling.
AppLatencyBudget app_to_app_budget(const HcaParams& hca,
                                   double fabric_switch_ns, double cable_ns);

}  // namespace osmosis::host
