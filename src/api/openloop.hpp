#pragma once
// Open-loop workload driver for the serving front-end (DESIGN.md §14).
//
// Simulates a population of up to millions of clients issuing requests
// into the fabric at a rate that does NOT depend on completions — the
// defining property of open-loop load, and the reason overload shows up
// as shed work rather than as a politely self-throttling generator. Per
// client the driver keeps only two 32-bit counters (issued, completed)
// packed in flat arrays, so a million clients cost 8 MB and no pointer
// chasing. Placement (source port, destination, tenant) is a pure hash
// of the client id, so a client is sticky to its ports across the run.
//
// Arrival processes (aggregate requests per slot):
//   poisson — Poisson(lambda), lambda chosen so the offered cell load
//             matches the configured per-port load.
//   mmpp    — 2-state Markov-modulated Poisson: a background state at a
//             reduced rate and a burst state at 4x it, with geometric
//             dwell times. Same long-run mean as poisson.
//   diurnal — Poisson with a sinusoidal rate envelope (configured
//             period, amplitude 0.6) modeling a day/night load cycle
//             compressed into the run.
//
// Every request carries kRequestBytes of payload; a quarter of them are
// one-sided RMA operations (a quarter of those reads, the rest writes)
// and the remainder are tagged two-sided sends.
//
// Determinism: one Rng drawn in a fixed order per slot; the diurnal
// envelope is a pure function of the slot number. Checkpointable via
// io_state (RNG, modulator state, per-client arrays).

#include <cstdint>
#include <string>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/sim/rng.hpp"
#include "src/util/mapped_allocator.hpp"

namespace osmosis::api {

enum class ArrivalKind : std::uint8_t {
  kPoisson = 0,
  kMmpp = 1,
  kDiurnal = 2,
};

const char* to_string(ArrivalKind k);
/// Parses "poisson" / "mmpp" / "diurnal"; returns false on anything else.
bool parse_arrival(const std::string& name, ArrivalKind* out);

/// Application payload per request, in bytes.
inline constexpr double kRequestBytes = 512.0;

struct OpenLoopConfig {
  std::int64_t clients = 0;  // 0 disables the driver (manual API only)
  int tenants = 4;           // tenant of client c is c % tenants
  ArrivalKind arrival = ArrivalKind::kPoisson;
  // Target offered load in cells per slot per port (line rate = 1.0).
  // Open loop: may exceed what the fabric can carry.
  double load = 0.5;
  // Diurnal envelope: rate scaled by 1 + 0.6 * sin(2*pi*t/period).
  double diurnal_period_slots = 4096.0;
};

/// One generated request, before admission.
struct Request {
  std::int64_t client = -1;
  int tenant = 0;
  int src = -1;
  int dst = -1;
  bool rma = false;
  bool read = false;  // meaningful only when rma
};

class OpenLoopDriver {
 public:
  OpenLoopDriver() = default;
  /// `cells_per_request`: what one request costs on the wire (from the
  /// segmenter), used to translate the cell-load target into a request
  /// rate. `seed` derives the arrival RNG and the placement hash salt.
  OpenLoopDriver(const OpenLoopConfig& cfg, int ports, int cells_per_request,
                 std::uint64_t seed);

  bool active() const { return cfg_.clients > 0; }
  const OpenLoopConfig& config() const { return cfg_; }

  /// Samples this slot's arrivals into `out` (cleared first). Open loop:
  /// the count depends only on the arrival process, never on outstanding
  /// work.
  void poll(std::uint64_t slot, std::vector<Request>& out);

  /// Bookkeeping: request of `client` was admitted into the fabric.
  void note_issue(std::int64_t client);
  /// Bookkeeping: a request of `client` completed.
  void note_complete(std::int64_t client);

  std::uint64_t issued(std::int64_t client) const {
    return issued_[static_cast<std::size_t>(client)];
  }
  std::uint64_t completed(std::int64_t client) const {
    return completed_[static_cast<std::size_t>(client)];
  }
  /// Clients that issued at least one request.
  std::int64_t active_clients() const { return active_clients_; }
  /// Widest per-client in-flight window seen at any note_issue.
  std::uint32_t max_outstanding() const { return max_outstanding_; }
  /// Long-run mean request rate per slot (all ports combined).
  double mean_rate() const { return mean_rate_; }

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, rng_);
    ckpt::field(a, mmpp_burst_);
    ckpt::field(a, issued_);
    ckpt::field(a, completed_);
    ckpt::field(a, active_clients_);
    ckpt::field(a, max_outstanding_);
    if constexpr (Ar::kLoading) {
      if (issued_.size() != completed_.size())
        throw ckpt::Error("OpenLoopDriver arrays inconsistent in checkpoint");
    }
  }

 private:
  /// Deterministic Poisson(lambda) via inversion-free Knuth multiplication,
  /// chunked so the running product stays in double range at any lambda.
  std::uint64_t poisson(double lambda);
  double rate_for_slot(std::uint64_t slot);

  OpenLoopConfig cfg_;
  int ports_ = 0;
  double mean_rate_ = 0.0;      // requests/slot, long-run mean
  std::uint64_t place_salt_ = 0;  // client -> (src, dst) hash salt
  sim::Rng rng_;
  bool mmpp_burst_ = false;
  // Flat per-client state; indexed by client id. Each array is a few
  // MB at a million clients and is freed with the driver, so it lives in
  // its own mapping (util::MappedAllocator).
  using ClientArray =
      std::vector<std::uint32_t, util::MappedAllocator<std::uint32_t>>;
  ClientArray issued_;
  ClientArray completed_;
  std::int64_t active_clients_ = 0;
  std::uint32_t max_outstanding_ = 0;
};

}  // namespace osmosis::api
