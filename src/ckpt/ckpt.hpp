// Container format for osmosis.ckpt.v1 snapshots.
//
//   magic "osmosis.ckpt.v1\0"                       (16 bytes)
//   u64   chunk_count
//   chunk_count x { u32 name_len | name | u64 payload_len | payload }
//   u32   crc32 of every preceding byte
//
// Chunks are named per component ("switch.voq", "switch.sched", ...)
// with explicit lengths, so a reader that does not know a chunk name
// skips it instead of desynchronizing. The whole file is validated at
// open — magic, structure, trailing bytes, checksum — before any chunk
// is handed out, so a truncated or bit-flipped snapshot fails loudly
// (ckpt::Error) and partial state can never load.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ckpt/archive.hpp"

namespace osmosis::ckpt {

inline constexpr std::string_view kMagic{"osmosis.ckpt.v1\0", 16};

std::uint32_t crc32(std::string_view bytes);

// Accumulates named chunks and serializes them with the trailing CRC.
// write_file is atomic (tmp file + rename), so a crash mid-write never
// leaves a half-written snapshot under the final name.
class Writer {
 public:
  void add_chunk(std::string name, std::string payload);
  std::string serialize() const;
  void write_file(const std::string& path) const;  // throws Error on I/O

 private:
  std::vector<std::pair<std::string, std::string>> chunks_;
};

// Parses and fully validates a serialized snapshot, then serves chunk
// payloads as bounded Sources.
class Reader {
 public:
  static Reader from_bytes(std::string bytes);  // throws Error
  static Reader from_file(const std::string& path);  // throws Error

  bool has(std::string_view name) const;
  Source chunk(std::string_view name) const;  // throws Error if absent

 private:
  struct Entry {
    std::string name;
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  std::string bytes_;
  std::vector<Entry> index_;
};

/// Serializes one component into a named chunk: `f(Sink&)` writes the
/// payload.
template <class F>
void write_chunk(Writer& w, std::string name, F&& f) {
  Sink s;
  f(s);
  w.add_chunk(std::move(name), s.take());
}

/// Loads one named chunk: `f(Source&)` consumes the payload, which must
/// be consumed exactly (trailing bytes throw).
template <class F>
void read_chunk(const Reader& r, std::string_view name, F&& f) {
  Source s = r.chunk(name);
  f(s);
  s.expect_end();
}

/// One chunk list for both directions: a component lists its chunks once
/// in a template over the Writer or the Reader, so save and load cannot
/// drift apart. `f` takes `auto&`, a Sink when saving and a Source when
/// loading.
template <class F>
void chunk(Writer& w, std::string name, F&& f) {
  write_chunk(w, std::move(name), f);
}
template <class F>
void chunk(const Reader& r, std::string_view name, F&& f) {
  read_chunk(r, name, f);
}

}  // namespace osmosis::ckpt
