#include "src/sw/portset.hpp"

#include <bit>

#include "src/util/log.hpp"

namespace osmosis::sw {

PortSet::PortSet(int ports)
    : ports_(ports),
      words_(static_cast<std::size_t>((ports + 63) / 64), 0) {
  OSMOSIS_REQUIRE(ports >= 0, "negative port count");
}

void PortSet::set(int p) {
  OSMOSIS_REQUIRE(p >= 0 && p < ports_, "port out of range: " << p);
  words_[static_cast<std::size_t>(p >> 6)] |= std::uint64_t{1} << (p & 63);
}

void PortSet::clear(int p) {
  OSMOSIS_REQUIRE(p >= 0 && p < ports_, "port out of range: " << p);
  words_[static_cast<std::size_t>(p >> 6)] &= ~(std::uint64_t{1} << (p & 63));
}

bool PortSet::test(int p) const {
  OSMOSIS_REQUIRE(p >= 0 && p < ports_, "port out of range: " << p);
  return (words_[static_cast<std::size_t>(p >> 6)] >> (p & 63)) & 1u;
}

void PortSet::clear_all() {
  for (auto& w : words_) w = 0;
}

void PortSet::set_all() {
  if (ports_ == 0) return;
  for (auto& w : words_) w = ~std::uint64_t{0};
  // Mask the tail beyond `ports_`.
  const int tail = ports_ & 63;
  if (tail != 0)
    words_.back() &= (std::uint64_t{1} << tail) - 1;
}

bool PortSet::any() const {
  for (auto w : words_)
    if (w != 0) return true;
  return false;
}

int PortSet::count() const {
  int n = 0;
  for (auto w : words_) n += std::popcount(w);
  return n;
}

int PortSet::next_circular(int from) const {
  if (ports_ == 0) return -1;
  OSMOSIS_REQUIRE(from >= 0 && from < ports_, "start out of range: " << from);
  // Linear scan over [from, ports_). Tail bits past `ports_` are never
  // set (set()/set_all() maintain that), so any hit is valid.
  int word = from >> 6;
  std::uint64_t w = words_[static_cast<std::size_t>(word)] &
                    (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (w != 0) return word * 64 + std::countr_zero(w);
    if (++word == word_count()) break;
    w = words_[static_cast<std::size_t>(word)];
  }
  // Wrap: scan [0, from).
  const int from_word = from >> 6;
  for (word = 0; word <= from_word; ++word) {
    w = words_[static_cast<std::size_t>(word)];
    if (word == from_word)
      w &= (from & 63) ? ((std::uint64_t{1} << (from & 63)) - 1) : 0;
    if (w != 0) return word * 64 + std::countr_zero(w);
  }
  return -1;
}

}  // namespace osmosis::sw
