// Crash-safe file helpers shared by model serialization (core) and the
// checkpoint/WAL layer (persist).
//
// Checksummed text files (v2 model files, checkpoints) end in a
// `checksum <16 hex digits>` footer line holding the FNV-1a-64 of every
// byte before it. seal_checksummed() appends it; verify_checksummed()
// checks it before a loader trusts any field.
//
// atomic_write_file() writes to a temporary file *in the same directory*
// as the target (rename(2) is only atomic within one filesystem), flushes
// it to stable storage, and renames it over the target. A crash at any
// point leaves either the old file or the new one — never a truncated
// hybrid. Errors throw std::runtime_error carrying the path and errno
// text so operators can tell a full disk from a bad mount.
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace appclass::common {

[[noreturn]] inline void throw_errno(const std::string& what,
                                     const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " +
                           std::strerror(errno ? errno : EIO));
}

/// Writes `content` to `fd` completely (retrying short writes / EINTR).
/// Returns false with errno set on failure.
inline bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync() of a directory, so a rename into it survives a power cut.
/// Best effort: some filesystems refuse O_DIRECTORY fsync; that is not a
/// correctness problem for process-level crashes.
inline void sync_directory_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Atomically replaces `path` with `content`: write temp in the same
/// directory, fsync, rename, fsync directory. Throws std::runtime_error
/// with errno context on any failure (the temp file is removed).
inline void atomic_write_file(const std::string& path,
                              const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot open for write:", tmp);
  if (!write_all(fd, content.data(), content.size())) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("write failed:", tmp);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("fsync failed:", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("close failed:", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("rename failed:", path);
  }
  sync_directory_of(path);
}

/// Reads a whole file; throws std::runtime_error with errno context when
/// it cannot be opened or read.
inline std::string read_file_or_throw(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("cannot open for read:", path);
  std::string out;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("read failed:", path);
    }
    if (n == 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

inline constexpr std::string_view kHexDigits = "0123456789abcdef";

/// `v` as 16 lowercase hex digits, zero-padded.
inline std::string to_hex64(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    out[static_cast<std::size_t>(i)] = kHexDigits[v & 0xf];
  return out;
}

/// `prefix` + to_hex64(seq) + `suffix`: file names (WAL segments,
/// checkpoints) whose lexical order is their sequence order.
inline std::string seq_file_name(std::string_view prefix, std::uint64_t seq,
                                 std::string_view suffix) {
  return std::string(prefix) + to_hex64(seq) + std::string(suffix);
}

/// The seq of a seq_file_name(prefix, seq, suffix); nullopt for any
/// other name.
inline std::optional<std::uint64_t> parse_seq_file_name(
    std::string_view name, std::string_view prefix, std::string_view suffix) {
  if (name.size() != prefix.size() + 16 + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix))
    return std::nullopt;
  const std::string_view hex = name.substr(prefix.size(), 16);
  if (hex.find_first_not_of(kHexDigits) != std::string_view::npos)
    return std::nullopt;
  std::uint64_t seq = 0;
  std::from_chars(hex.data(), hex.data() + hex.size(), seq, 16);
  return seq;
}

/// Paths of the seq_file_name() files in `dir`, in ascending seq order;
/// empty when `dir` is missing.
inline std::vector<std::string> list_seq_files(const std::string& dir,
                                               std::string_view prefix,
                                               std::string_view suffix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = ::readdir(d)) {
    if (parse_seq_file_name(entry->d_name, prefix, suffix))
      out.push_back(dir + "/" + entry->d_name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

inline constexpr std::string_view kChecksumTag = "checksum ";

/// Appends the checksum footer line covering all of `body`.
inline void seal_checksummed(std::string& body) {
  const std::uint64_t hash = fnv1a64(body);
  body.append(kChecksumTag);
  body.append(to_hex64(hash));
  body.push_back('\n');
}

/// Verifies the checksum footer of `text`. Throws std::runtime_error
/// whose message is `error_prefix` followed by "missing checksum footer",
/// "truncated checksum footer" (the crash landed inside the footer) or
/// "checksum mismatch" (the body is damaged).
inline void verify_checksummed(std::string_view text,
                               std::string_view error_prefix) {
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(std::string(error_prefix) + what);
  };
  const std::size_t footer = text.rfind(kChecksumTag);
  if (footer == std::string_view::npos)
    fail("missing checksum footer (truncated file?)");
  std::string_view recorded = text.substr(footer + kChecksumTag.size());
  while (!recorded.empty() &&
         (recorded.back() == '\n' || recorded.back() == '\r' ||
          recorded.back() == ' '))
    recorded.remove_suffix(1);
  if (recorded.size() != 16 ||
      recorded.find_first_not_of(kHexDigits) != std::string_view::npos)
    fail("truncated checksum footer (expected 16 hex digits, found '" +
         std::string(recorded) + "')");
  const std::string computed = to_hex64(fnv1a64(text.substr(0, footer)));
  if (recorded != computed)
    fail("checksum mismatch: file is corrupt (expected " + computed +
         ", found '" + std::string(recorded) + "')");
}

}  // namespace appclass::common
