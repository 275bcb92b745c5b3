// Big-endian integer codecs of the binary formats: monitor::wire
// packets, dist frames/hello/ack and WAL records. The byte order is a
// format contract (tests/golden_bytes_test.cpp pins it). put_be* append
// to a std::vector<std::uint8_t> or a std::string; get_be* read from a
// pointer the caller has already bounds-checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace appclass::common {

/// Appends the low `width` bytes of `v`, most significant first.
inline void put_be(auto& out, std::uint64_t v, std::size_t width) {
  using Byte = typename std::remove_reference_t<decltype(out)>::value_type;
  for (std::size_t i = width; i-- > 0;)
    out.push_back(static_cast<Byte>((v >> (8 * i)) & 0xff));
}

inline void put_be16(auto& out, std::uint16_t v) { put_be(out, v, 2); }
inline void put_be32(auto& out, std::uint32_t v) { put_be(out, v, 4); }
inline void put_be64(auto& out, std::uint64_t v) { put_be(out, v, 8); }

/// The `width`-byte big-endian integer at `p`.
inline std::uint64_t get_be(const std::uint8_t* p, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) v = (v << 8) | p[i];
  return v;
}

inline std::uint32_t get_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(get_be(p, 4));
}

inline std::uint64_t get_be64(const std::uint8_t* p) { return get_be(p, 8); }

}  // namespace appclass::common
