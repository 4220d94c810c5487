#include "src/api/openloop.hpp"

#include <cmath>

#include "src/util/log.hpp"

namespace osmosis::api {

namespace {

// Operation mix: the fraction of requests issued one-sided, and of
// those, the fraction that are reads.
constexpr double kRmaFraction = 0.25;
constexpr double kReadFraction = 0.25;
// MMPP modulator: burst-state rate multiplier and per-slot transition
// probabilities (geometric dwell: mean 1/p slots per state).
constexpr double kMmppBurstFactor = 4.0;
constexpr double kMmppPEnterBurst = 0.02;
constexpr double kMmppPLeaveBurst = 0.08;
constexpr double kDiurnalAmplitude = 0.6;

}  // namespace

const char* to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kMmpp: return "mmpp";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "?";
}

bool parse_arrival(const std::string& name, ArrivalKind* out) {
  if (name == "poisson") *out = ArrivalKind::kPoisson;
  else if (name == "mmpp") *out = ArrivalKind::kMmpp;
  else if (name == "diurnal") *out = ArrivalKind::kDiurnal;
  else return false;
  return true;
}

OpenLoopDriver::OpenLoopDriver(const OpenLoopConfig& cfg, int ports,
                               int cells_per_request, std::uint64_t seed)
    : cfg_(cfg), ports_(ports), rng_(seed) {
  OSMOSIS_REQUIRE(cfg.clients >= 1, "open-loop driver needs clients >= 1");
  OSMOSIS_REQUIRE(cfg.clients <= (std::int64_t{1} << 26),
                  "clients capped at 64M (per-client state is resident)");
  OSMOSIS_REQUIRE(ports >= 2, "open-loop driver needs >= 2 ports");
  OSMOSIS_REQUIRE(cfg.tenants >= 1 && cfg.tenants <= 64,
                  "tenants must be in 1..64");
  OSMOSIS_REQUIRE(cells_per_request >= 1, "request must be >= 1 cell");
  OSMOSIS_REQUIRE(cfg.load > 0.0, "open-loop load must be positive");
  OSMOSIS_REQUIRE(cfg.diurnal_period_slots >= 2.0,
                  "diurnal period must be >= 2 slots");
  // Cell-load target -> aggregate request rate: each request occupies
  // cells_per_request slots on its source port's line.
  mean_rate_ = cfg.load * static_cast<double>(ports) /
               static_cast<double>(cells_per_request);
  std::uint64_t salt_state = seed ^ 0x9E3779B97F4A7C15ULL;
  place_salt_ = sim::splitmix64(salt_state);
  issued_.assign(static_cast<std::size_t>(cfg.clients), 0);
  completed_.assign(static_cast<std::size_t>(cfg.clients), 0);
}

std::uint64_t OpenLoopDriver::poisson(double lambda) {
  // Knuth's product method in chunks of <= 16 (exp(-16) ~ 1.1e-7 keeps
  // the comparison well inside double precision); Poisson additivity
  // makes the chunked sum exact in distribution.
  std::uint64_t k = 0;
  while (lambda > 0.0) {
    const double chunk = lambda > 16.0 ? 16.0 : lambda;
    lambda -= chunk;
    const double limit = std::exp(-chunk);
    double p = rng_.uniform();
    while (p > limit) {
      ++k;
      p *= rng_.uniform();
    }
  }
  return k;
}

double OpenLoopDriver::rate_for_slot(std::uint64_t slot) {
  switch (cfg_.arrival) {
    case ArrivalKind::kPoisson:
      return mean_rate_;
    case ArrivalKind::kMmpp: {
      // Advance the modulator once per slot (one bernoulli draw, always —
      // fixed draw order keeps the stream checkpoint-stable).
      const double p = mmpp_burst_ ? kMmppPLeaveBurst : kMmppPEnterBurst;
      if (rng_.bernoulli(p)) mmpp_burst_ = !mmpp_burst_;
      // Rates chosen so the stationary mean equals mean_rate_: the chain
      // spends pi_b = p_enter / (p_enter + p_leave) of its time bursting.
      const double pi_b =
          kMmppPEnterBurst / (kMmppPEnterBurst + kMmppPLeaveBurst);
      const double base =
          mean_rate_ / (1.0 + pi_b * (kMmppBurstFactor - 1.0));
      return mmpp_burst_ ? base * kMmppBurstFactor : base;
    }
    case ArrivalKind::kDiurnal: {
      const double phase = 2.0 * 3.14159265358979323846 *
                           static_cast<double>(slot) /
                           cfg_.diurnal_period_slots;
      return mean_rate_ * (1.0 + kDiurnalAmplitude * std::sin(phase));
    }
  }
  return mean_rate_;
}

void OpenLoopDriver::poll(std::uint64_t slot, std::vector<Request>& out) {
  out.clear();
  const std::uint64_t n = poisson(rate_for_slot(slot));
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Request r;
    r.client = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(cfg_.clients)));
    r.tenant = static_cast<int>(r.client % cfg_.tenants);
    // Sticky placement: a pure hash of the client id — no per-client
    // storage, stable across the run and across checkpoints.
    std::uint64_t h = place_salt_ ^
                      (static_cast<std::uint64_t>(r.client) *
                       0x9E3779B97F4A7C15ULL);
    const std::uint64_t h1 = sim::splitmix64(h);
    const std::uint64_t h2 = sim::splitmix64(h);
    r.src = static_cast<int>(h1 % static_cast<std::uint64_t>(ports_));
    r.dst = static_cast<int>(
        (static_cast<std::uint64_t>(r.src) + 1 +
         h2 % static_cast<std::uint64_t>(ports_ - 1)) %
        static_cast<std::uint64_t>(ports_));
    r.rma = rng_.bernoulli(kRmaFraction);
    r.read = r.rma && rng_.bernoulli(kReadFraction);
    out.push_back(r);
  }
}

void OpenLoopDriver::note_issue(std::int64_t client) {
  auto& iss = issued_[static_cast<std::size_t>(client)];
  if (iss == 0) ++active_clients_;
  ++iss;
  const std::uint32_t outstanding =
      iss - completed_[static_cast<std::size_t>(client)];
  if (outstanding > max_outstanding_) max_outstanding_ = outstanding;
}

void OpenLoopDriver::note_complete(std::int64_t client) {
  auto& done = completed_[static_cast<std::size_t>(client)];
  OSMOSIS_REQUIRE(done < issued_[static_cast<std::size_t>(client)],
                  "completion without a matching issue for client "
                      << client);
  ++done;
}

}  // namespace osmosis::api
