// Blocking IPv4 TCP socket setup shared by the scrape server, the worker
// ingest listener, the coordinator->worker link and the HTTP client, and
// the one accept loop both servers run on.
//
// Served and client sockets carry SO_RCVTIMEO/SO_SNDTIMEO, and the
// kernel never restarts a recv()/send() interrupted on such a socket
// (SA_RESTART does not apply). recv_some() and send_all() therefore
// retry EINTR themselves, so a signal cannot cut a message short.
// Failures return -1 / false with errno set; callers do the logging.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace appclass::common::net {

/// Socket + SO_REUSEADDR + bind + listen on `address`:`port`, retrying
/// bind/listen `bind_retries` more times after waits of 100 ms doubling
/// up to 2 s, so a restarted process can reclaim a port its dead
/// predecessor still holds. Returns the listening fd and stores the
/// bound port (resolving port 0) in `bound_port`; -1 with errno set on
/// failure (EINVAL: bad address).
int listen_tcp(const std::string& address, std::uint16_t port, int backlog,
               int bind_retries, std::uint16_t& bound_port);

/// accept() retried across EINTR/ECONNABORTED. The connection gets the
/// given receive/send timeouts and TCP_NODELAY, so small replies (acks,
/// scrape responses) leave at once instead of waiting behind Nagle.
/// -1 once the listener is shut down or fails.
int accept_connection(int listen_fd, int recv_timeout_ms,
                      int send_timeout_ms);

/// Socket + receive/send timeouts (+ TCP_NODELAY when `no_delay`) +
/// blocking connect to `host`:`port`; the timeouts, set first, bound the
/// handshake too. The connected fd, or -1 (socket closed) on failure.
int connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms,
                bool no_delay);

/// Sends all `size` bytes (MSG_NOSIGNAL, EINTR retried). False when the
/// peer is gone or the send timeout expired.
bool send_all(int fd, const void* data, std::size_t size);

/// One recv() retried across EINTR: bytes read, 0 at end of stream, or
/// -1 with errno set (EAGAIN when the timeout expired or MSG_DONTWAIT
/// found nothing).
ssize_t recv_some(int fd, void* data, std::size_t size, int flags = 0);

/// Receive/send timeout of the connections both servers accept: a peer
/// that stops reading or writing cannot hold an accept thread past it.
inline constexpr int kServeTimeoutMs = 2000;

/// One accept thread serving connections one at a time: accept, then
/// serve(fd), then close. A handler that stalls on a silent peer is cut
/// short by stop(), not by its I/O timeout.
class Acceptor {
 public:
  using Serve = std::function<void(int fd)>;

  Acceptor() = default;
  ~Acceptor() { stop(); }

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// listen_tcp(), then the accept thread. Connections get
  /// `io_timeout_ms` receive and send timeouts (see accept_connection).
  /// False with errno set when the socket cannot be bound.
  bool start(const std::string& address, std::uint16_t port, int backlog,
             int bind_retries, int io_timeout_ms, Serve serve);

  /// Shuts down the connection being served and the listen socket, joins
  /// the thread, then closes the listen socket (only after the join, so
  /// the thread never reads a reused descriptor). True when this call
  /// stopped a running acceptor.
  bool stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// The bound port (resolves port 0 requests); 0 before start().
  std::uint16_t port() const noexcept { return port_; }

 private:
  void loop(int io_timeout_ms);

  Serve serve_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::mutex conn_mutex_;
  int conn_fd_ = -1;  ///< the connection being served; guarded by conn_mutex_
  std::thread thread_;
};

}  // namespace appclass::common::net
