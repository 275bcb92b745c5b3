// Shared socket helpers: an interrupted receive keeps reading (sockets
// with SO_RCVTIMEO are never restarted by the kernel, so EINTR reaches
// the caller), accepted connections carry TCP_NODELAY and the requested
// timeouts, and an unparsable listen address fails cleanly.
#include "common/net.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>

namespace appclass::common::net {
namespace {

std::atomic<int> g_signals{0};

extern "C" void count_signal(int) { g_signals.fetch_add(1); }

void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
}

long millis(const timeval& tv) { return tv.tv_sec * 1000 + tv.tv_usec / 1000; }

int int_option(int fd, int level, int name) {
  int value = -1;
  socklen_t len = sizeof value;
  EXPECT_EQ(::getsockopt(fd, level, name, &value, &len), 0);
  return value;
}

TEST(CommonNet, RecvSomeSurvivesSignalMidRead) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // As on every served connection: with a receive timeout the kernel
  // reports EINTR instead of restarting the call.
  set_recv_timeout(fds[0], 5000);

  struct sigaction action {};
  action.sa_handler = count_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  const std::string payload(4096, 'x');
  std::string received;
  std::atomic<bool> reading{false};
  std::thread reader([&] {
    char buffer[512];
    reading = true;
    while (received.size() < payload.size()) {
      const ssize_t n = recv_some(fds[0], buffer, sizeof buffer);
      if (n <= 0) break;
      received.append(buffer, static_cast<std::size_t>(n));
    }
  });
  while (!reading) std::this_thread::yield();

  // Interrupt the reader while it is blocked before any byte, and again
  // after the first half has arrived. EXPECT, not ASSERT, until the join.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(::pthread_kill(reader.native_handle(), SIGUSR1), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t half = payload.size() / 2;
  EXPECT_TRUE(send_all(fds[1], payload.data(), half));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(::pthread_kill(reader.native_handle(), SIGUSR1), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(send_all(fds[1], payload.data() + half, payload.size() - half));
  reader.join();

  EXPECT_EQ(g_signals.load(), 2);
  EXPECT_EQ(received, payload);
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(CommonNet, AcceptedConnectionHasNoDelayAndTimeouts) {
  std::uint16_t port = 0;
  int listen_fd = listen_tcp("127.0.0.1", 0, 4, 0, port);
  ASSERT_GE(listen_fd, 0);
  ASSERT_NE(port, 0);

  const int client = connect_tcp("127.0.0.1", port, 1000,
                                 /*no_delay=*/false);
  ASSERT_GE(client, 0);
  EXPECT_EQ(int_option(client, IPPROTO_TCP, TCP_NODELAY), 0);

  const int conn = accept_connection(listen_fd, 1500, 250);
  ASSERT_GE(conn, 0);
  EXPECT_EQ(int_option(conn, IPPROTO_TCP, TCP_NODELAY), 1);
  timeval rcv{};
  timeval snd{};
  socklen_t len = sizeof rcv;
  ASSERT_EQ(::getsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &rcv, &len), 0);
  len = sizeof snd;
  ASSERT_EQ(::getsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &snd, &len), 0);
  // The kernel stores the timeouts in scheduler ticks.
  EXPECT_LE(std::labs(millis(rcv) - 1500), 10);
  EXPECT_LE(std::labs(millis(snd) - 250), 10);

  const int nodelay_client = connect_tcp("127.0.0.1", port, 1000,
                                         /*no_delay=*/true);
  ASSERT_GE(nodelay_client, 0);
  EXPECT_EQ(int_option(nodelay_client, IPPROTO_TCP, TCP_NODELAY), 1);

  ::close(nodelay_client);
  ::close(conn);
  ::close(client);
  ::close(listen_fd);
}

TEST(CommonNet, StopListeningUnblocksAcceptThenCloses) {
  std::uint16_t port = 0;
  int listen_fd = listen_tcp("127.0.0.1", 0, 4, 0, port);
  ASSERT_GE(listen_fd, 0);
  int accepted = 0;
  std::thread acceptor([&accepted, fd = listen_fd] {
    accepted = accept_connection(fd, 100, 100);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  stop_listening(listen_fd, acceptor);
  EXPECT_FALSE(acceptor.joinable());
  EXPECT_EQ(accepted, -1);
  EXPECT_EQ(listen_fd, -1);
  EXPECT_EQ(connect_tcp("127.0.0.1", port, 1000, /*no_delay=*/false), -1);
}

TEST(CommonNet, UnparsableAddressFailsWithEinval) {
  errno = 0;
  std::uint16_t port = 0;
  EXPECT_EQ(listen_tcp("not-an-address", 0, 4, 3, port), -1);
  EXPECT_EQ(errno, EINVAL);
  EXPECT_EQ(port, 0);
}

}  // namespace
}  // namespace appclass::common::net
