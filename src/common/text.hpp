// Text primitives: the strict integer parse behind every command-line
// flag, and the token reader of the line-oriented file formats (v2
// model files, checkpoints).
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace appclass::common {

/// Digits-only integer parse for flag/env values. Deliberately stricter
/// than strtoll, which accepts leading whitespace and a sign — so
/// "--port= 80", "+80", or "-1" would read as valid ports/counts. Every
/// value parsed this way is a count, port, seed or ordinal: non-negative
/// by definition, so only [0-9]+ is well-formed. Length-capped below
/// LLONG_MAX's 19 digits, so overflow cannot occur.
inline std::optional<long long> parse_int(std::string_view text) {
  if (text.empty() || text.size() > 18) return std::nullopt;
  long long v = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return std::nullopt;
    v = v * 10 + (ch - '0');
  }
  return v;
}

/// Reads whitespace-separated tokens of a text format. Every failure
/// throws std::runtime_error: the caller's `error_prefix`, then what
/// went wrong (the way verify_checksummed() reports).
class TokenReader {
 public:
  TokenReader(std::istream& is, std::string_view error_prefix)
      : is_(is), error_prefix_(error_prefix) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(error_prefix_) + what);
  }

  void expect_tag(const std::string& tag) {
    std::string got;
    if (!(is_ >> got) || got != tag) fail("expected '" + tag + "'");
  }

  double read_double() { return read<double>("truncated number"); }
  long long read_int() { return read<long long>("truncated integer"); }
  std::uint64_t read_u64() { return read<std::uint64_t>("truncated integer"); }

  /// A non-negative count.
  std::size_t read_size() {
    const auto v = read<long long>("bad count");
    if (v < 0) fail("bad count");
    return static_cast<std::size_t>(v);
  }

 private:
  template <typename T>
  T read(const char* what) {
    T v{};
    if (!(is_ >> v)) fail(what);
    return v;
  }

  std::istream& is_;
  std::string_view error_prefix_;
};

}  // namespace appclass::common
