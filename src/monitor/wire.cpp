#include "monitor/wire.hpp"

#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/hash.hpp"

namespace appclass::monitor {

namespace {

constexpr std::uint32_t kMagic = 0x41504D43;  // "APMC"
constexpr std::uint16_t kVersion = 1;

}  // namespace

std::size_t packet_size(std::size_t node_ip_length) {
  // magic + version + checksum + time + ip length + ip + 33 doubles.
  return 4 + 2 + 4 + 8 + 2 + node_ip_length + 8 * metrics::kMetricCount;
}

std::vector<std::uint8_t> encode_packet(const metrics::Snapshot& snapshot) {
  APPCLASS_EXPECTS(snapshot.node_ip.size() <= kMaxNodeIpLength);
  std::vector<std::uint8_t> out;
  out.reserve(packet_size(snapshot.node_ip.size()));
  common::put_be32(out, kMagic);
  common::put_be16(out, kVersion);
  const std::size_t checksum_slot = out.size();
  common::put_be32(out, 0);  // placeholder
  common::put_be64(out, static_cast<std::uint64_t>(snapshot.time));
  common::put_be16(out, static_cast<std::uint16_t>(snapshot.node_ip.size()));
  out.insert(out.end(), snapshot.node_ip.begin(), snapshot.node_ip.end());
  for (const double v : snapshot.values)
    common::put_be64(out, std::bit_cast<std::uint64_t>(v));

  const std::uint32_t checksum = common::fnv1a32(
      std::span<const std::uint8_t>(out).subspan(checksum_slot + 4));
  out[checksum_slot + 0] = static_cast<std::uint8_t>(checksum >> 24);
  out[checksum_slot + 1] = static_cast<std::uint8_t>(checksum >> 16);
  out[checksum_slot + 2] = static_cast<std::uint8_t>(checksum >> 8);
  out[checksum_slot + 3] = static_cast<std::uint8_t>(checksum);
  APPCLASS_ENSURES(out.size() == packet_size(snapshot.node_ip.size()));
  return out;
}

std::optional<metrics::Snapshot> decode_packet(
    std::span<const std::uint8_t> packet) {
  const std::uint8_t* p = packet.data();
  if (packet.size() < packet_size(0) || common::get_be32(p) != kMagic ||
      common::get_be(p + 4, 2) != kVersion ||
      common::fnv1a32(packet.subspan(10)) != common::get_be32(p + 6))
    return std::nullopt;
  const auto ip_len = static_cast<std::size_t>(common::get_be(p + 18, 2));
  if (ip_len > kMaxNodeIpLength || packet.size() != packet_size(ip_len))
    return std::nullopt;

  metrics::Snapshot s;
  s.time = static_cast<metrics::SimTime>(common::get_be64(p + 10));
  s.node_ip.assign(reinterpret_cast<const char*>(p + 20), ip_len);
  const std::uint8_t* values = p + 20 + ip_len;
  for (std::size_t i = 0; i < metrics::kMetricCount; ++i)
    s.values[i] = std::bit_cast<double>(common::get_be64(values + 8 * i));
  return s;
}

}  // namespace appclass::monitor
