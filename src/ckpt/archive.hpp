// Serialization primitives for the osmosis.ckpt.v1 snapshot format.
//
// A component exposes one member template
//
//   template <class Ar> void io_state(Ar& a) { field(a, x_); field(a, y_); }
//
// that lists its mutable state once; the same code path runs for saving
// (Ar = Sink, appends bytes) and loading (Ar = Source, consumes bytes),
// so save and load can never drift apart. `field` dispatches: classes
// with io_state recurse, everything else resolves to an `io` overload
// below (scalars, strings, and the standard containers the simulators
// use). Unordered containers are written sorted by key so identical
// logical state always produces identical bytes.
//
// Scalars are raw little-endian fixed-width copies of the in-memory
// representation (doubles as IEEE-754 bit patterns, never text): the
// format is bit-exact and self-consistent on one platform but not
// portable across architectures with different endianness or widths.
// See DESIGN.md §10.
//
// All load-side failures throw ckpt::Error — never OSMOSIS_REQUIRE —
// so a corrupted snapshot is reportable and recoverable (the campaign
// runner falls back to re-running the job from scratch).

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace osmosis::ckpt {

class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Byte sink for saving. Never fails; never mutates what it serializes
// (components cast away const in their `save_state` wrappers, which is
// sound because Sink::raw only reads).
class Sink {
 public:
  static constexpr bool kLoading = false;

  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Byte source for loading. Does not own the bytes; the Reader that
// produced it keeps them alive. Every read is bounds-checked and a
// short read throws, so a malformed chunk can never half-load a
// component silently.
class Source {
 public:
  static constexpr bool kLoading = true;

  explicit Source(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  void raw(void* data, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n)
      throw Error("checkpoint chunk truncated mid-field");
    std::memcpy(data, p_, n);
    p_ += n;
  }
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  // Called after a component finishes loading a chunk: trailing bytes
  // mean the saved layout and the loading code disagree.
  void expect_end() const {
    if (p_ != end_) throw Error("checkpoint chunk has trailing bytes");
  }

 private:
  const char* p_;
  const char* end_;
};

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <Scalar T>
void io(Sink& a, T& v) {
  a.raw(&v, sizeof v);
}
template <Scalar T>
void io(Source& a, T& v) {
  a.raw(&v, sizeof v);
}

// Dispatcher: every element/field goes through here so nested structs
// with io_state compose with the container overloads below.
template <class Ar, class T>
void field(Ar& a, T& v) {
  if constexpr (requires { v.io_state(a); }) {
    v.io_state(a);
  } else {
    io(a, v);
  }
}

inline void io(Sink& a, std::string& s) {
  std::uint64_t n = s.size();
  a.raw(&n, sizeof n);
  a.raw(s.data(), s.size());
}
inline void io(Source& a, std::string& s) {
  std::uint64_t n = 0;
  a.raw(&n, sizeof n);
  if (n > a.remaining()) throw Error("string length exceeds chunk");
  s.resize(static_cast<std::size_t>(n));
  a.raw(s.data(), static_cast<std::size_t>(n));
}

namespace detail {

// Each serialized element occupies at least one byte, so a length
// prefix larger than the bytes left is corrupt (and would otherwise be
// an allocation bomb).
inline std::uint64_t load_count(Source& a) {
  std::uint64_t n = 0;
  a.raw(&n, sizeof n);
  if (n > a.remaining()) throw Error("container length exceeds chunk");
  return n;
}

}  // namespace detail

template <class Ar, class T>
void io(Ar& a, std::vector<T>& v) {
  if constexpr (Ar::kLoading) {
    const std::uint64_t n = detail::load_count(a);
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      T e{};
      field(a, e);
      v.push_back(std::move(e));
    }
  } else {
    std::uint64_t n = v.size();
    a.raw(&n, sizeof n);
    for (auto& e : v) field(a, e);
  }
}

template <class Ar, class T>
void io(Ar& a, std::deque<T>& v) {
  if constexpr (Ar::kLoading) {
    const std::uint64_t n = detail::load_count(a);
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      T e{};
      field(a, e);
      v.push_back(std::move(e));
    }
  } else {
    std::uint64_t n = v.size();
    a.raw(&n, sizeof n);
    for (auto& e : v) field(a, e);
  }
}

template <class Ar, class T, std::size_t N>
void io(Ar& a, std::array<T, N>& v) {
  for (auto& e : v) field(a, e);
}

template <class Ar, class A, class B>
void io(Ar& a, std::pair<A, B>& p) {
  field(a, p.first);
  field(a, p.second);
}

template <class Ar, class K, class V>
void io(Ar& a, std::map<K, V>& m) {
  if constexpr (Ar::kLoading) {
    const std::uint64_t n = detail::load_count(a);
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      V v{};
      field(a, k);
      field(a, v);
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
  } else {
    std::uint64_t n = m.size();
    a.raw(&n, sizeof n);
    for (auto& kv : m) {
      K k = kv.first;  // keys are const in place; copy for the writer
      field(a, k);
      field(a, kv.second);
    }
  }
}

// Same wire shape as std::map. Loading with an end() hint keeps the
// saved order of equal keys, which the retry queues rely on.
template <class Ar, class K, class V>
void io(Ar& a, std::multimap<K, V>& m) {
  if constexpr (Ar::kLoading) {
    const std::uint64_t n = detail::load_count(a);
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      V v{};
      field(a, k);
      field(a, v);
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
  } else {
    std::uint64_t n = m.size();
    a.raw(&n, sizeof n);
    for (auto& kv : m) {
      K k = kv.first;
      field(a, k);
      field(a, kv.second);
    }
  }
}

// Written sorted by key: hash-table iteration order is not stable
// across processes, and the snapshot must be a pure function of the
// logical state.
template <class Ar, class K, class V, class H, class E>
void io(Ar& a, std::unordered_map<K, V, H, E>& m) {
  if constexpr (Ar::kLoading) {
    const std::uint64_t n = detail::load_count(a);
    m.clear();
    m.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      V v{};
      field(a, k);
      field(a, v);
      m.emplace(std::move(k), std::move(v));
    }
  } else {
    std::uint64_t n = m.size();
    a.raw(&n, sizeof n);
    std::vector<const typename std::unordered_map<K, V, H, E>::value_type*>
        sorted;
    sorted.reserve(m.size());
    for (const auto& kv : m) sorted.push_back(&kv);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* x, const auto* y) { return x->first < y->first; });
    for (const auto* kv : sorted) {
      K k = kv->first;
      V v = kv->second;
      field(a, k);
      field(a, v);
    }
  }
}

// A component whose hooks are a virtual save_state(Sink&) const and
// load_state(Source&) pair (schedulers, traffic generators).
template <class Ar, class T>
void save_or_load(Ar& a, T& component) {
  if constexpr (Ar::kLoading)
    component.load_state(a);
  else
    component.save_state(a);
}

}  // namespace osmosis::ckpt
