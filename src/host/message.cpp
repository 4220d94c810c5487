#include "src/host/message.hpp"

#include <cmath>

#include "src/util/log.hpp"

namespace osmosis::host {

Segmenter::Segmenter(double user_bytes_per_cell)
    : user_bytes_per_cell_(user_bytes_per_cell) {
  OSMOSIS_REQUIRE(user_bytes_per_cell_ > 0.0,
                  "cell user payload must be positive");
}

int Segmenter::cells_for(double bytes) const {
  OSMOSIS_REQUIRE(bytes >= 0.0, "negative message size");
  return std::max(1, static_cast<int>(std::ceil(bytes / user_bytes_per_cell_)));
}

void Segmenter::post(const Message& msg) {
  InProgress ip;
  ip.msg = msg;
  ip.cells_left = cells_for(msg.bytes);
  (msg.control ? control_q_ : data_q_).push_back(ip);
}

bool Segmenter::next_cell(std::uint64_t& msg_id_out, int& dst_out,
                          bool& control_out, bool& last_out) {
  // Strict priority for control messages at the injection point, the
  // same policy the VOQs apply throughout the fabric (§IV).
  std::deque<InProgress>* q = nullptr;
  if (!control_q_.empty())
    q = &control_q_;
  else if (!data_q_.empty())
    q = &data_q_;
  else
    return false;

  InProgress& ip = q->front();
  msg_id_out = ip.msg.id;
  dst_out = ip.msg.dst;
  control_out = ip.msg.control;
  last_out = --ip.cells_left == 0;
  if (last_out) q->pop_front();
  return true;
}

}  // namespace osmosis::host
