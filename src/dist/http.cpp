#include "dist/http.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/net.hpp"

namespace appclass::dist {

namespace {

/// Case-insensitive header search within the raw header block.
bool headers_contain(std::string_view headers, std::string_view name,
                     std::string_view value) {
  std::string lower(headers);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(
                     std::tolower(c)); });
  std::string needle(name);
  std::transform(needle.begin(), needle.end(), needle.begin(),
                 [](unsigned char c) { return static_cast<char>(
                     std::tolower(c)); });
  std::size_t pos = 0;
  while ((pos = lower.find(needle, pos)) != std::string::npos) {
    // Must start a header line.
    if (pos != 0 && lower[pos - 1] != '\n') {
      ++pos;
      continue;
    }
    const std::size_t line_end = lower.find('\n', pos);
    const std::string_view line(lower.data() + pos,
                                (line_end == std::string::npos
                                     ? lower.size()
                                     : line_end) -
                                    pos);
    if (line.find(value) != std::string_view::npos) return true;
    pos += needle.size();
  }
  return false;
}

}  // namespace

const char* to_string(HttpError error) noexcept {
  switch (error) {
    case HttpError::kOk: return "ok";
    case HttpError::kConnect: return "connect";
    case HttpError::kTimeout: return "timeout";
    case HttpError::kTooLarge: return "too-large";
    case HttpError::kChunked: return "chunked";
    case HttpError::kProtocol: return "protocol";
    case HttpError::kStatus: return "status";
  }
  return "unknown";
}

HttpResult http_get_ex(const std::string& host, std::uint16_t port,
                       const std::string& path,
                       const HttpGetOptions& options) {
  HttpResult result;
  const int fd = common::net::connect_tcp(host, port, options.timeout_ms,
                                         /*no_delay=*/false);
  if (fd < 0) return result;  // kConnect

  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!common::net::send_all(fd, request.data(), request.size())) {
    ::close(fd);
    result.error = HttpError::kTimeout;
    return result;
  }

  // Connection: close — read to EOF under the byte cap, then split
  // headers from body. A Content-Length that already exceeds the cap
  // aborts mid-stream instead of buffering the excess first.
  std::string response;
  char buffer[4096];
  std::size_t headers_end = std::string::npos;
  bool checked_headers = false;
  for (;;) {
    const ssize_t n = common::net::recv_some(fd, buffer, sizeof(buffer));
    if (n < 0) {
      ::close(fd);
      // EAGAIN/EWOULDBLOCK here means the SO_RCVTIMEO budget expired.
      result.error = (errno == EAGAIN || errno == EWOULDBLOCK)
                         ? HttpError::kTimeout
                         : HttpError::kConnect;
      return result;
    }
    if (n == 0) break;
    if (response.size() + static_cast<std::size_t>(n) >
        options.max_response_bytes) {
      ::close(fd);
      result.error = HttpError::kTooLarge;
      return result;
    }
    response.append(buffer, static_cast<std::size_t>(n));
    if (!checked_headers) {
      headers_end = response.find("\r\n\r\n");
      if (headers_end != std::string::npos) {
        checked_headers = true;
        const std::string_view headers(response.data(), headers_end);
        if (headers_contain(headers, "transfer-encoding", "chunked")) {
          ::close(fd);
          result.error = HttpError::kChunked;
          return result;
        }
        // Reject an announced oversize body before draining it.
        const std::size_t cl = std::string(headers).find("Content-Length:");
        if (cl != std::string::npos) {
          const unsigned long long announced =
              std::strtoull(response.c_str() + cl + 15, nullptr, 10);
          if (announced > options.max_response_bytes) {
            ::close(fd);
            result.error = HttpError::kTooLarge;
            return result;
          }
        }
      }
    }
  }
  ::close(fd);

  if (headers_end == std::string::npos) {
    result.error = HttpError::kProtocol;
    return result;
  }
  // Status line: HTTP/1.x NNN ...
  if (response.rfind("HTTP/1.", 0) != 0 || response.size() < 12) {
    result.error = HttpError::kProtocol;
    return result;
  }
  result.status = std::atoi(response.c_str() + 9);
  result.body = response.substr(headers_end + 4);
  result.error =
      result.status == 200 ? HttpError::kOk : HttpError::kStatus;
  return result;
}

std::optional<std::string> http_get(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& path,
                                    int timeout_ms) {
  HttpGetOptions options;
  options.timeout_ms = timeout_ms;
  HttpResult result = http_get_ex(host, port, path, options);
  if (!result.ok()) return std::nullopt;
  return std::move(result.body);
}

}  // namespace appclass::dist
