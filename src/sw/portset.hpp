#pragma once
// Fixed-capacity bitmask over switch ports with circular first-set
// search — the core primitive of the round-robin grant/accept arbiters.
// For the demonstrator's 64 ports this is a single machine word, making
// one scheduler iteration O(ports/64) per output rather than O(ports).

#include <cstdint>
#include <vector>

#include "src/ckpt/archive.hpp"

namespace osmosis::sw {

class PortSet {
 public:
  explicit PortSet(int ports = 0);

  int size() const { return ports_; }

  void set(int p);
  void clear(int p);
  bool test(int p) const;
  void clear_all();
  void set_all();

  bool any() const;
  int count() const;

  /// First set bit at or after `from`, wrapping circularly; -1 if empty.
  /// This is the round-robin cursor scan of the wormhole VC allocator.
  int next_circular(int from) const;

  /// Word `w` holds ports [64w, 64w + 64); bit p & 63 is port p. For
  /// word-at-a-time scans; `w` must be below word_count().
  int word_count() const { return static_cast<int>(words_.size()); }
  std::uint64_t word(int w) const {
    return words_[static_cast<std::size_t>(w)];
  }

  template <class Ar>
  void io_state(Ar& a) {
    ckpt::field(a, ports_);
    ckpt::field(a, words_);
    if constexpr (Ar::kLoading) {
      if (words_.size() != static_cast<std::size_t>((ports_ + 63) / 64))
        throw ckpt::Error("PortSet word count inconsistent in checkpoint");
    }
  }

 private:
  int ports_;
  std::vector<std::uint64_t> words_;
};

}  // namespace osmosis::sw
