#pragma once
// Error channels and coded-BER estimation for the §IV.C reliability
// chain: raw optical BER (1e-10..1e-12) -> FEC -> hop-by-hop
// retransmission.
//
// Because the interesting error rates are far below what naive Monte
// Carlo can reach, three complementary tools are provided:
//   1. Monte-Carlo channels (BSC and Gilbert-Elliott burst) for the
//      regimes where events are observable,
//   2. forced-error-weight injection, which measures the decoder's
//      conditional behaviour (corrected / detected / miscorrected) given
//      exactly w bit errors, and
//   3. analytic binomial estimates that combine (2) with the error-weight
//      distribution to produce the paper's 1e-17 / 1e-21 style numbers.

#include <cstdint>

#include "src/fec/hamming272.hpp"
#include "src/sim/rng.hpp"

namespace osmosis::fec {

/// Memoryless binary symmetric channel acting on codewords.
class BinarySymmetricChannel {
 public:
  BinarySymmetricChannel(double ber, sim::Rng rng);

  /// Flips each of the 272 bits independently with probability `ber`.
  /// Returns the number of bits flipped. Uses geometric skipping so the
  /// cost is proportional to the number of errors, not the block size.
  int transmit(Hamming272::CodeBlock& cw);

  double ber() const { return ber_; }

 private:
  double ber_;
  sim::Rng rng_;
};

/// Two-state Gilbert-Elliott burst channel: a good state with low BER
/// and a bad state with high BER, with geometric sojourn times. Models
/// the bursty impairments (e.g. XGM hits) that motivate detecting
/// "most multi-bit errors" rather than correcting them.
class GilbertElliottChannel {
 public:
  struct Params {
    double good_ber = 1e-10;
    double bad_ber = 1e-3;
    double mean_good_blocks = 1e6;  // mean sojourn in good state (blocks)
    double mean_bad_blocks = 2.0;   // mean sojourn in bad state (blocks)
  };

  GilbertElliottChannel(Params p, sim::Rng rng);

  /// Transmits one block through the current state, then evolves the
  /// state. Returns bits flipped.
  int transmit(Hamming272::CodeBlock& cw);

 private:
  Params p_;
  bool bad_ = false;
  sim::Rng rng_;
};

/// Outcome histogram of decoding blocks carrying exactly `weight` random
/// bit errors.
struct ErrorWeightOutcome {
  int weight = 0;
  std::uint64_t trials = 0;
  std::uint64_t corrected_ok = 0;   // decoder repaired the data exactly
  std::uint64_t detected = 0;       // decoder flagged uncorrectable
  std::uint64_t miscorrected = 0;   // decoder claimed success, data wrong

  double detected_fraction() const {
    return trials ? static_cast<double>(detected) / static_cast<double>(trials)
                  : 0.0;
  }
  double miscorrected_fraction() const {
    return trials ? static_cast<double>(miscorrected) /
                        static_cast<double>(trials)
                  : 0.0;
  }
};

/// Decodes `trials` random data blocks, each hit by exactly `weight`
/// distinct random bit flips, and classifies the outcomes.
ErrorWeightOutcome inject_bit_errors(int weight, std::uint64_t trials,
                                     sim::Rng& rng);

/// Full Monte-Carlo run over a BSC at `ber` (only useful for ber where
/// errors are actually observable, say >= 1e-6).
CodecStats run_bsc(double ber, std::uint64_t blocks, sim::Rng& rng);

// ---- analytic estimates ----------------------------------------------------

/// P(a symbol is corrupted) for bit error rate p: 1 - (1-p)^8.
double symbol_error_prob(double bit_ber);

/// P(>= 2 of the 34 codeword symbols are corrupted) — the probability
/// the single-error decoder cannot repair a block. Computed term-by-term
/// to stay accurate at 1e-19-scale values.
double frame_multi_error_prob(double bit_ber);

/// Post-FEC user BER (standard RS-style approximation): expected fraction
/// of corrupted symbols among blocks the decoder cannot repair, scaled to
/// bits. This is the paper's "better than 1e-17" tier for raw 1e-10.
double post_fec_ber(double bit_ber);

/// Residual undetected-error BER once detected blocks are repaired by
/// hop-by-hop retransmission: only miscorrections survive.
/// `miscorrect_given_multi` is the conditional miscorrection probability
/// measured by inject_bit_errors (weight >= 2). This is the paper's
/// "better than 1e-21" tier.
double post_arq_ber(double bit_ber, double miscorrect_given_multi);

}  // namespace osmosis::fec
