#pragma once
// Host-level messages over the cell fabric (§III): HPC nodes exchange
// variable-size messages — short latency-critical control messages and
// long bandwidth-critical data transfers — which the Host Channel
// Adapter segments into the fabric's fixed-size cells. In-order cell
// delivery per (input, output, class) (a Table 1 requirement the switch
// guarantees) means a message is complete once its last cell lands, so
// reassembly is a count of outstanding cells (api::ServeSim keeps one
// per operation).

#include <cstdint>
#include <deque>

#include "src/ckpt/archive.hpp"

namespace osmosis::host {

/// One application message.
struct Message {
  int src = -1;
  int dst = -1;
  std::uint64_t id = 0;       // globally unique
  double bytes = 0.0;         // application payload
  std::uint64_t post_slot = 0;  // slot the application posted the send
  bool control = false;       // short latency-critical class

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, src);
    ckpt::field(a, dst);
    ckpt::field(a, id);
    ckpt::field(a, bytes);
    ckpt::field(a, post_slot);
    ckpt::field(a, control);
  }
};

/// Per-host segmentation engine: splits posted messages into cells (one
/// cell per slot per host — the line rate), FIFO per class with control
/// priority at the injection point.
class Segmenter {
 public:
  /// `user_bytes_per_cell`: payload a cell carries after guard/FEC/header
  /// (phy::CellFormat::user_bytes()).
  explicit Segmenter(double user_bytes_per_cell);

  /// Application posts a message for transmission.
  void post(const Message& msg);

  /// How many cells a message of `bytes` occupies (>= 1).
  int cells_for(double bytes) const;

  /// Emits the next cell this slot, if any work is pending. Returns
  /// false when idle. `msg_id_out` receives the owning message id,
  /// `dst_out` its destination, `control_out` its class, `last_out`
  /// whether this is the message's final cell.
  bool next_cell(std::uint64_t& msg_id_out, int& dst_out, bool& control_out,
                 bool& last_out);

  bool idle() const { return control_q_.empty() && data_q_.empty(); }

  /// In-flight segmentation state (queued messages + cells-left
  /// cursors); `user_bytes_per_cell_` is construction config and is not
  /// serialized — the owner rebuilds from the same config before load.
  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, control_q_);
    ckpt::field(a, data_q_);
  }

 private:
  struct InProgress {
    Message msg;
    int cells_left = 0;

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, msg);
      ckpt::field(a, cells_left);
    }
  };

  double user_bytes_per_cell_;
  std::deque<InProgress> control_q_;
  std::deque<InProgress> data_q_;
};

}  // namespace osmosis::host
