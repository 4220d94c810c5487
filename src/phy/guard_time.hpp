#pragma once
// Guard-time and cell-timing budgets (§IV.C, §V).
//
// The demonstrator uses fixed 256-byte cells at 40 Gb/s including the
// guard time, i.e. a 51.2 ns cell cycle. The guard time has three
// contributors the paper enumerates: the optical switch element settling
// time (~5 ns for SOAs), burst-mode receiver phase reacquisition (each
// cell arrives from a different serializer with independent phase), and
// the packet-arrival jitter margin (all cells must hit the crossbar
// while it reconfigures). On top of the guard time, FEC overhead
// (6.25 %) and the cell header reduce the user share to roughly 75 % —
// the paper's "effective user bandwidth" requirement.

#include <string>

namespace osmosis::phy {

/// The three guard-time contributors, in nanoseconds.
struct GuardTimeBudget {
  double switch_settle_ns = 5.0;        // SOA on/off settling
  double phase_reacquisition_ns = 2.0;  // burst-mode receiver lock (~80 bits)
  double arrival_jitter_ns = 1.0;       // synchronization margin [20]

  double total_ns() const {
    return switch_settle_ns + phase_reacquisition_ns + arrival_jitter_ns;
  }
};

/// Fixed-size cell format on an optical line.
struct CellFormat {
  double cell_bytes = 256.0;      // on-the-wire cell incl. guard share
  double line_rate_gbps = 40.0;   // raw line rate
  GuardTimeBudget guard;          // carved out of the cell cycle
  double fec_overhead = 0.0625;   // (272,256): 16/256 = 6.25 %
  double header_bytes = 8.0;      // routing + sequence + FC piggyback

  /// Full cell cycle (the demonstrator's 51.2 ns).
  double cycle_ns() const { return cell_bytes * 8.0 / line_rate_gbps; }

  /// Time in the cycle actually carrying light with data.
  double payload_window_ns() const { return cycle_ns() - guard.total_ns(); }

  /// Bytes transmitted within the payload window.
  double payload_bytes() const {
    return payload_window_ns() * line_rate_gbps / 8.0;
  }

  /// User-visible bytes after FEC overhead and header are removed.
  double user_bytes() const {
    return payload_bytes() / (1.0 + fec_overhead) - header_bytes;
  }

  /// Effective user bandwidth as a fraction of the raw line rate
  /// (the paper's ~75 % figure for the demonstrator format).
  double user_efficiency() const {
    return user_bytes() * 8.0 / (cell_bytes * 8.0);
  }

  /// True when the guard fits in the cycle with a usable payload window.
  bool feasible() const { return user_bytes() > 0.0; }
};

/// Demonstrator cell format from §V (64 ports, 40 Gb/s, 256 B, 51.2 ns).
CellFormat demonstrator_cell_format();

/// Store-and-forward penalty of one buffer hop for this format: the time
/// to fully receive a cell before forwarding (§IV's 5.33 ns for 64 B at
/// 12 GByte/s example is this quantity).
double store_and_forward_penalty_ns(double cell_bytes, double rate_gbps);

/// One line of human-readable budget breakdown (for the bench harness).
std::string describe(const CellFormat& f);

}  // namespace osmosis::phy
