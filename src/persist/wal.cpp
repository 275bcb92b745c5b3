#include "persist/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "monitor/wire.hpp"
#include "obs/log.hpp"

namespace appclass::persist {
namespace {

constexpr std::string_view kSegmentHeader = "appclass-wal v1\n";
constexpr std::uint32_t kRecordMagic = 0x57414C52;  // "WALR"
constexpr std::string_view kSegmentPrefix = "wal-";
constexpr std::string_view kSegmentSuffix = ".seg";
/// kNever flushes to the OS at this buffer size (memory bound, no fsync).
constexpr std::size_t kNeverPolicyFlushBytes = 256 * 1024;

}  // namespace

std::string_view to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kNever: return "never";
  }
  return "always";
}

std::optional<FsyncPolicy> fsync_policy_from_string(
    std::string_view name) noexcept {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "never") return FsyncPolicy::kNever;
  return std::nullopt;
}

WalWriter::WalWriter(std::string dir, WalOptions options,
                     std::uint64_t next_seq)
    : dir_(std::move(dir)), options_(options), next_seq_(next_seq) {
  APPCLASS_EXPECTS(options_.sync_every >= 1);
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
    common::throw_errno("cannot create WAL directory:", dir_);
  open_segment();
}

WalWriter::~WalWriter() {
  if (fd_ < 0) return;
  try {
    sync();
  } catch (...) {
    // Destructor must not throw; the data at risk is bounded by policy.
  }
  ::close(fd_);
}

void WalWriter::open_segment() {
  segment_path_ = dir_ + "/" + common::seq_file_name(kSegmentPrefix, next_seq_,
                                                    kSegmentSuffix);
  // A leftover segment with this exact first-seq can only hold records a
  // prior recovery already declared lost (torn tail / nothing replayable)
  // — replace it rather than appending after garbage.
  ::unlink(segment_path_.c_str());
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) common::throw_errno("cannot open WAL segment:", segment_path_);
  segment_first_seq_ = next_seq_;
  buffer_.assign(kSegmentHeader);
  segment_bytes_ = kSegmentHeader.size();
  unsynced_records_ = 0;
}

void WalWriter::flush_buffer() {
  if (buffer_.empty()) return;
  if (!common::write_all(fd_, buffer_.data(), buffer_.size()))
    common::throw_errno("WAL write failed:", segment_path_);
  buffer_.clear();
}

std::uint64_t WalWriter::append(const metrics::Snapshot& snapshot) {
  const std::lock_guard lock(mutex_);
  if (crashed_ || fd_ < 0)
    throw std::runtime_error("WAL writer is closed: " + segment_path_);

  const std::vector<std::uint8_t> payload = monitor::encode_packet(snapshot);
  const std::size_t record_size = 4 + 8 + 4 + payload.size() + 8;
  if (segment_bytes_ + record_size > options_.max_segment_bytes &&
      segment_bytes_ > kSegmentHeader.size()) {
    // Rotate: the outgoing segment is flushed AND fsynced, so only the
    // active segment can ever lose records to a crash.
    flush_buffer();
    if (::fsync(fd_) != 0)
      common::throw_errno("WAL fsync failed:", segment_path_);
    ::close(fd_);
    open_segment();
  }

  const std::uint64_t seq = next_seq_++;
  const std::size_t body_start = buffer_.size() + 4;  // after the magic
  common::put_be32(buffer_, kRecordMagic);
  common::put_be64(buffer_, seq);
  common::put_be32(buffer_, static_cast<std::uint32_t>(payload.size()));
  buffer_.append(reinterpret_cast<const char*>(payload.data()),
                 payload.size());
  const std::uint64_t checksum =
      common::fnv1a64(std::string_view(buffer_).substr(body_start));
  common::put_be64(buffer_, checksum);
  segment_bytes_ += record_size;
  ++appended_;
  ++unsynced_records_;

  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      sync_locked();
      break;
    case FsyncPolicy::kInterval:
      if (unsynced_records_ >= options_.sync_every) sync_locked();
      break;
    case FsyncPolicy::kNever:
      if (buffer_.size() >= kNeverPolicyFlushBytes) flush_buffer();
      break;
  }
  return seq;
}

void WalWriter::sync() {
  const std::lock_guard lock(mutex_);
  sync_locked();
}

void WalWriter::sync_locked() {
  if (crashed_ || fd_ < 0) return;
  flush_buffer();
  if (::fsync(fd_) != 0)
    common::throw_errno("WAL fsync failed:", segment_path_);
  unsynced_records_ = 0;
}

std::size_t WalWriter::prune_through(std::uint64_t seq) {
  const std::lock_guard lock(mutex_);
  const std::vector<std::string> segments = wal_segments(dir_);
  std::size_t removed = 0;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::string& next = segments[i + 1];
    const auto next_first = common::parse_seq_file_name(
        std::string_view(next).substr(next.find_last_of('/') + 1),
        kSegmentPrefix, kSegmentSuffix);
    if (!next_first) continue;
    if (segments[i] == segment_path_) break;  // never the active segment
    // Records of segment i are < next segment's first seq.
    if (*next_first == 0 || *next_first - 1 > seq) break;
    if (::unlink(segments[i].c_str()) == 0) {
      ++removed;
      APPCLASS_LOG_DEBUG("wal.pruned", {"segment", segments[i]},
                         {"through_seq", seq});
    }
  }
  return removed;
}

void WalWriter::simulate_crash() {
  const std::lock_guard lock(mutex_);
  // SIGKILL semantics: whatever reached write(2) survives in the page
  // cache; the user-space buffer vanishes.
  buffer_.clear();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  crashed_ = true;
}

std::vector<std::string> wal_segments(const std::string& dir) {
  return common::list_seq_files(dir, kSegmentPrefix, kSegmentSuffix);
}

WalScan replay_wal(const std::string& dir, std::uint64_t from_seq,
                   const std::function<void(const WalRecord&)>& fn) {
  WalScan scan;
  std::uint64_t last_delivered = 0;
  bool any_delivered = false;
  for (const std::string& path : wal_segments(dir)) {
    ++scan.segments;
    std::string data;
    try {
      data = common::read_file_or_throw(path);
    } catch (const std::runtime_error&) {
      scan.truncated_tail = true;
      continue;
    }
    const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t pos = 0;
    if (data.size() < kSegmentHeader.size() ||
        std::string_view(data.data(), kSegmentHeader.size()) !=
            kSegmentHeader) {
      scan.truncated_tail = true;
      APPCLASS_LOG_WARN("wal.bad_segment_header", {"segment", path});
      continue;
    }
    pos = kSegmentHeader.size();
    // Records until EOF or the first torn/corrupt one. A tear terminates
    // this segment only: later segments were written by a post-recovery
    // process that had already accepted the loss.
    while (pos < data.size()) {
      if (data.size() - pos < 4 + 8 + 4 ||
          common::get_be32(bytes + pos) != kRecordMagic) {
        scan.truncated_tail = true;
        break;
      }
      const std::uint64_t seq = common::get_be64(bytes + pos + 4);
      const std::size_t len = common::get_be32(bytes + pos + 12);
      if (data.size() - pos < 4 + 8 + 4 + len + 8) {
        scan.truncated_tail = true;
        break;
      }
      const std::uint64_t recorded = common::get_be64(bytes + pos + 16 + len);
      if (common::fnv1a64({bytes + pos + 4, 12 + len}) != recorded) {
        scan.truncated_tail = true;
        break;
      }
      const auto snapshot = monitor::decode_packet(
          std::span<const std::uint8_t>(bytes + pos + 16, len));
      pos += 4 + 8 + 4 + len + 8;
      if (!snapshot) {
        scan.truncated_tail = true;
        break;
      }
      if (seq >= from_seq && (!any_delivered || seq > last_delivered)) {
        fn(WalRecord{seq, *snapshot});
        ++scan.records;
        last_delivered = seq;
        any_delivered = true;
        scan.last_seq = seq;
      }
    }
  }
  return scan;
}

}  // namespace appclass::persist
