#pragma once
// Message-level workloads: the communication patterns HPC applications
// actually put on the fabric — random messaging with the paper's bimodal
// control/data mix, and collective exchanges (all-to-all, ring/neighbor)
// whose completion time the fabric determines.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/host/message.hpp"
#include "src/sim/rng.hpp"

namespace osmosis::host {

/// Posts messages to hosts over time.
class MessageWorkload {
 public:
  virtual ~MessageWorkload() = default;

  virtual int hosts() const = 0;

  /// Appends the messages host `h` posts at slot `t` to `out`. Ids must
  /// be globally unique; the caller fills post_slot.
  virtual void poll(int host, std::uint64_t t, std::vector<Message>& out) = 0;
};

/// Random messaging: each host posts a message per slot with probability
/// `msg_rate`; `control_fraction` of them are short control messages of
/// `control_bytes`, the rest data messages of `data_bytes`. Destinations
/// uniform (excluding self).
class RandomMessages final : public MessageWorkload {
 public:
  RandomMessages(int hosts, double msg_rate, double control_fraction,
                 double control_bytes, double data_bytes, sim::Rng rng);

  int hosts() const override { return hosts_; }
  void poll(int host, std::uint64_t t, std::vector<Message>& out) override;

 private:
  int hosts_;
  double msg_rate_;
  double control_fraction_;
  double control_bytes_;
  double data_bytes_;
  sim::Rng rng_;
  std::uint64_t next_id_ = 1;
};

/// All-to-all personalized exchange: at slot 0 every host posts one
/// message of `bytes` to every other host (the N(N-1)-message collective
/// that stresses every VOQ simultaneously).
class AllToAll final : public MessageWorkload {
 public:
  AllToAll(int hosts, double bytes);

  int hosts() const override { return hosts_; }
  void poll(int host, std::uint64_t t, std::vector<Message>& out) override;

 private:
  int hosts_;
  double bytes_;
  std::uint64_t next_id_ = 1;
};

/// Ring (nearest-neighbor) exchange: at slot 0 each host sends `bytes`
/// to (h+1) mod N — a permutation, the fabric's friendliest collective.
class RingExchange final : public MessageWorkload {
 public:
  RingExchange(int hosts, double bytes);

  int hosts() const override { return hosts_; }
  void poll(int host, std::uint64_t t, std::vector<Message>& out) override;

 private:
  int hosts_;
  double bytes_;
};

}  // namespace osmosis::host
