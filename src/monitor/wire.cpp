#include "monitor/wire.hpp"

#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace appclass::monitor {

namespace {

constexpr std::uint32_t kMagic = 0x41504D43;  // "APMC"
constexpr std::uint16_t kVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  std::uint16_t u16() { return static_cast<std::uint16_t>(read(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(read(4)); }
  std::uint64_t u64() { return read(8); }
  double f64() { return std::bit_cast<double>(read(8)); }

  std::string bytes(std::size_t n) {
    if (remaining() < n) {
      ok_ = false;
      return {};
    }
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return out;
  }

 private:
  std::uint64_t read(std::size_t n) {
    if (remaining() < n) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v = (v << 8) | bytes_[pos_ + i];
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::size_t packet_size(std::size_t node_ip_length) {
  // magic + version + checksum + time + ip length + ip + 33 doubles.
  return 4 + 2 + 4 + 8 + 2 + node_ip_length + 8 * metrics::kMetricCount;
}

std::vector<std::uint8_t> encode_packet(const metrics::Snapshot& snapshot) {
  APPCLASS_EXPECTS(snapshot.node_ip.size() <= kMaxNodeIpLength);
  std::vector<std::uint8_t> out;
  out.reserve(packet_size(snapshot.node_ip.size()));
  put_u32(out, kMagic);
  put_u16(out, kVersion);
  const std::size_t checksum_slot = out.size();
  put_u32(out, 0);  // placeholder
  put_u64(out, static_cast<std::uint64_t>(snapshot.time));
  put_u16(out, static_cast<std::uint16_t>(snapshot.node_ip.size()));
  out.insert(out.end(), snapshot.node_ip.begin(), snapshot.node_ip.end());
  for (const double v : snapshot.values) put_f64(out, v);

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
  Reader reader(packet);
  if (reader.u32() != kMagic) return std::nullopt;
  if (reader.u16() != kVersion) return std::nullopt;
  const std::uint32_t checksum = reader.u32();
  if (!reader.ok()) return std::nullopt;
  if (common::fnv1a32(packet.subspan(10)) != checksum) return std::nullopt;

  metrics::Snapshot s;
  s.time = static_cast<metrics::SimTime>(reader.u64());
  const std::uint16_t ip_len = reader.u16();
  if (!reader.ok() || ip_len > kMaxNodeIpLength) return std::nullopt;
  s.node_ip = reader.bytes(ip_len);
  for (std::size_t i = 0; i < metrics::kMetricCount; ++i)
    s.values[i] = reader.f64();
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return s;
}

}  // namespace appclass::monitor
