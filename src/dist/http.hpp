// Minimal blocking HTTP GET client for coordinator-side merges.
//
// The coordinator aggregates worker state by scraping the workers' own
// ScrapeServer routes (/composition, /shard/classes, /appdb, /replay,
// /metrics, /traces/recent) — the same read-only surface operators curl.
// One short-lived connection per request, hard read/write timeouts, no
// keep-alive: merge traffic is a handful of tiny requests per scrape, so
// the simplest correct client wins (the mirror image of obs/scrape.hpp's
// deliberately non-framework server).
//
// The client is hardened against a misbehaving or hostile peer: the
// response is capped (a worker cannot balloon the coordinator's memory),
// reads run under SO_RCVTIMEO, and chunked transfer encoding — which
// this deliberately simple client does not implement — is rejected
// rather than mis-parsed. Each failure mode gets a distinct error so
// per-worker scrape health can say *why* a worker is unreachable.
#pragma once

#include <cstdint>
#include <string>

namespace appclass::dist {

enum class HttpError {
  kOk,        ///< 200 with a complete body
  kConnect,   ///< socket/resolve/connect failure
  kTimeout,   ///< read or write tripped the timeout budget
  kTooLarge,  ///< response exceeded max_response_bytes
  kChunked,   ///< Transfer-Encoding: chunked (unsupported, rejected)
  kProtocol,  ///< malformed status line / headers
  kStatus,    ///< well-formed response with a non-200 status
};

const char* to_string(HttpError error) noexcept;

struct HttpGetOptions {
  int timeout_ms = 2000;
  /// Hard cap on the bytes read (headers + body). The default comfortably
  /// holds a large /metrics or bounded /traces/recent dump.
  std::size_t max_response_bytes = 8 * 1024 * 1024;
};

struct HttpResult {
  HttpError error = HttpError::kConnect;
  int status = 0;     ///< HTTP status when one was parsed, else 0
  std::string body;   ///< response body on kOk (also on kStatus)

  bool ok() const noexcept { return error == HttpError::kOk; }
};

/// Fetches http://host:port/path with distinct failure classification.
HttpResult http_get_ex(const std::string& host, std::uint16_t port,
                       const std::string& path,
                       const HttpGetOptions& options = {});

}  // namespace appclass::dist
