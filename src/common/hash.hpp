// FNV-1a, the one non-cryptographic hash of the code base. The 64-bit
// form checksums dist frames, WAL records and checksummed text files and
// places ShardMap ring points; the 32-bit form checksums monitor::wire
// packets. Every value it produces is on disk or on the wire, so both
// forms are a format contract. Inline byte loops: model and checkpoint
// loads hash whole files on the recovery path.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace appclass::common {

inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline std::uint64_t fnv1a64(std::string_view text) noexcept {
  return fnv1a64({reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()});
}

inline std::uint32_t fnv1a32(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t hash = 2166136261u;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace appclass::common
