#include "common/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

namespace appclass::common::net {

namespace {

constexpr int kBindRetryInitialMs = 100;
constexpr int kBindRetryMaxMs = 2000;

timeval to_timeval(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  return tv;
}

void set_timeouts(int fd, int recv_timeout_ms, int send_timeout_ms) {
  const timeval rcv = to_timeval(recv_timeout_ms);
  const timeval snd = to_timeval(send_timeout_ms);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof rcv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof snd);
}

void set_no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool to_sockaddr(const std::string& host, std::uint16_t port,
                 sockaddr_in& addr) {
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

int listen_tcp(const std::string& address, std::uint16_t port, int backlog,
               int bind_retries, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  bool listening = false;
  if (!to_sockaddr(address, port, addr)) {
    errno = EINVAL;
  } else {
    int backoff_ms = kBindRetryInitialMs;
    for (int attempt = 0; attempt <= bind_retries && !listening; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, kBindRetryMaxMs);
      }
      listening =
          ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd, backlog) == 0;
    }
  }
  if (!listening) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    bound_port = ntohs(addr.sin_port);
  return fd;
}

void stop_listening(int& fd, std::thread& acceptor) {
  ::shutdown(fd, SHUT_RDWR);
  if (acceptor.joinable()) acceptor.join();
  ::close(fd);
  fd = -1;
}

int accept_connection(int listen_fd, int recv_timeout_ms,
                      int send_timeout_ms) {
  int fd = -1;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && (errno == EINTR || errno == ECONNABORTED));
  if (fd < 0) return -1;
  set_timeouts(fd, recv_timeout_ms, send_timeout_ms);
  set_no_delay(fd);
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms,
                bool no_delay) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_timeouts(fd, timeout_ms, timeout_ms);
  if (no_delay) set_no_delay(fd);

  sockaddr_in addr{};
  if (!to_sockaddr(host, port, addr) ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

ssize_t recv_some(int fd, void* data, std::size_t size, int flags) {
  ssize_t n = -1;
  do {
    n = ::recv(fd, data, size, flags);
  } while (n < 0 && errno == EINTR);
  return n;
}

}  // namespace appclass::common::net
