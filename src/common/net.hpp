// Blocking IPv4 TCP socket setup shared by the scrape server, the worker
// ingest listener, the coordinator->worker link and the HTTP client.
//
// Served and client sockets carry SO_RCVTIMEO/SO_SNDTIMEO, and the
// kernel never restarts a recv()/send() interrupted on such a socket
// (SA_RESTART does not apply). recv_some() and send_all() therefore
// retry EINTR themselves, so a signal cannot cut a message short.
// Failures return -1 / false with errno set; callers do the logging.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
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

/// Unblocks `acceptor` sitting in accept() on `fd`, joins it, then
/// closes `fd` and sets it to -1. Closing only after the join keeps the
/// descriptor the acceptor reads valid until it has left its loop.
void stop_listening(int& fd, std::thread& acceptor);

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

}  // namespace appclass::common::net
