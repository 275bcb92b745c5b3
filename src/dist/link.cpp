#include "dist/link.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "common/net.hpp"
#include "dist/wire.hpp"
#include "obs/cardinality.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::dist {

namespace {

/// Max frames in flight before send() blocks on acks.
constexpr std::size_t kWindow = 64;
/// Reconnect backoff: initial, doubling to max.
constexpr int kBackoffInitialMs = 100;
constexpr int kBackoffMaxMs = 2000;

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peer label guard shared by every link in the process: a coordinator
/// pointed at a churning worker set keeps bounded series cardinality.
const std::string& peer_label(const std::string& host, std::uint16_t port) {
  static obs::BoundedLabelSet peers(32);
  return peers.admit(host + ":" + std::to_string(port));
}

}  // namespace

WorkerLink::WorkerLink(std::string host, std::uint16_t port,
                       WorkerLinkOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      e2e_durable_hist_(obs::MetricsRegistry::global().histogram(
          "appclass_e2e_durable_ack_seconds")),
      ack_rtt_hist_(obs::MetricsRegistry::global().histogram(
          "appclass_dist_link_ack_rtt_seconds",
          {{"peer", peer_label(host_, port_)}})),
      horizon_lag_gauge_(obs::MetricsRegistry::global().gauge(
          "appclass_dist_link_wal_horizon_lag",
          {{"peer", peer_label(host_, port_)}})) {}

WorkerLink::~WorkerLink() { disconnect(); }

bool WorkerLink::stop_requested() const {
  return options_.should_stop && options_.should_stop();
}

void WorkerLink::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ack_buffer_.clear();
}

bool WorkerLink::ensure_connected() {
  if (fd_ >= 0) return true;
  int backoff_ms = kBackoffInitialMs;
  bool first_attempt = true;
  while (!stop_requested()) {
    if (!first_attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
    }
    first_attempt = false;

    const int fd = common::net::connect_tcp(host_, port_,
                                            options_.io_timeout_ms,
                                            /*no_delay=*/true);
    if (fd < 0) continue;

    // The hello is the worker's durable horizon; everything the resume
    // logic needs arrives in this one message.
    std::uint8_t raw[kHelloBytes];
    std::size_t got = 0;
    bool ok = true;
    while (got < kHelloBytes) {
      const ssize_t n =
          common::net::recv_some(fd, raw + got, kHelloBytes - got);
      if (n <= 0) {
        ok = false;
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    Hello hello;
    if (!ok || decode_hello({raw, kHelloBytes}, hello) != DecodeStatus::kOk) {
      ::close(fd);
      continue;
    }

    fd_ = fd;
    if (!seq_adopted_) {
      // First contact: a worker resuming from its state dir starts
      // mid-sequence; number our frames from its horizon.
      next_seq_ = hello.wal_next;
      seq_adopted_ = true;
    } else {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::global()
          .counter("appclass_dist_link_reconnects_total")
          .inc();
      // Frames below the horizon were durable before the crash: retire
      // them as acked (the ack itself died with the connection, so no
      // RTT sample, but announce->durable is real — this is exactly the
      // slow path the freshness SLO exists to catch).
      while (!unacked_.empty() && unacked_.front().seq < hello.wal_next)
        retire_front(/*acked_on_wire=*/false);
      if (hello.wal_next > next_seq_)
        APPCLASS_LOG_WARN("dist.link_horizon_ahead", {"port", port_},
                          {"hello", hello.wal_next}, {"next", next_seq_});
      bool resent_ok = true;
      for (Pending& pending : unacked_) {
        pending.sent_steady_us = steady_now_us();
        if (!common::net::send_all(fd_, pending.bytes.data(),
                                   pending.bytes.size())) {
          resent_ok = false;
          break;
        }
      }
      if (!resent_ok) {
        disconnect();
        continue;
      }
      APPCLASS_LOG_INFO("dist.link_resumed", {"port", port_},
                        {"horizon", hello.wal_next},
                        {"resent", unacked_.size()});
    }
    return true;
  }
  return false;
}

void WorkerLink::retire_front(bool acked_on_wire) {
  const Pending& front = unacked_.front();
  if (acked_on_wire && front.sent_steady_us > 0) {
    const double rtt_s = static_cast<double>(std::max<std::int64_t>(
                             steady_now_us() - front.sent_steady_us, 0)) *
                         1e-6;
    ack_rtt_hist_.observe(rtt_s);
  }
  if (front.announce_us > 0) {
    const std::uint64_t now_us = wall_now_us();
    const double e2e_s =
        now_us > front.announce_us
            ? static_cast<double>(now_us - front.announce_us) * 1e-6
            : 0.0;  // clamp cross-host clock skew to zero
    e2e_durable_hist_.observe(e2e_s);
    // Slowest traced announce wins the exemplar: the trace id a human
    // follows from the latency histogram into /fleet/traces.
    if (front.trace_id != 0 && e2e_s >= e2e_durable_hist_.exemplar_value())
      e2e_durable_hist_.set_exemplar(e2e_s, front.trace_id);
    if (options_.on_durable) options_.on_durable(e2e_s);
  }
  acked_.fetch_add(1, std::memory_order_relaxed);
  unacked_.pop_front();
  horizon_lag_gauge_.set(static_cast<double>(unacked_.size()));
}

void WorkerLink::apply_ack(std::uint64_t seq) {
  // Acks are cumulative: seq and everything below is durable.
  while (!unacked_.empty() && unacked_.front().seq <= seq)
    retire_front(/*acked_on_wire=*/true);
}

bool WorkerLink::drain_acks(bool block) {
  std::uint8_t buffer[1024];
  for (;;) {
    const ssize_t n = common::net::recv_some(fd_, buffer, sizeof buffer,
                                             block ? 0 : MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Non-blocking pass with nothing pending is fine; a blocking wait
      // timing out means the worker stalled — reconnect and resend.
      return !block;
    }
    if (n <= 0) return false;
    ack_buffer_.insert(ack_buffer_.end(), buffer, buffer + n);
    while (ack_buffer_.size() >= kAckBytes) {
      std::uint64_t seq = 0;
      if (decode_ack({ack_buffer_.data(), kAckBytes}, seq) !=
          DecodeStatus::kOk)
        return false;
      apply_ack(seq);
      ack_buffer_.erase(ack_buffer_.begin(),
                        ack_buffer_.begin() + kAckBytes);
    }
    if (block) return true;  // got at least one read; caller re-checks
  }
}

bool WorkerLink::send(const metrics::Snapshot& snapshot,
                      const obs::TraceContext& trace) {
  for (;;) {
    if (stop_requested()) return false;
    if (!ensure_connected()) return false;
    // Window full: wait for acks before adding more in-flight data.
    if (unacked_.size() >= kWindow) {
      if (!drain_acks(/*block=*/true)) disconnect();
      continue;
    }
    break;
  }

  const std::uint64_t announce_us = wall_now_us();
  Pending pending{next_seq_,
                  encode_frame(snapshot, next_seq_, trace, announce_us),
                  announce_us, trace.trace_id, steady_now_us()};
  ++next_seq_;
  unacked_.push_back(std::move(pending));
  sent_.fetch_add(1, std::memory_order_relaxed);
  horizon_lag_gauge_.set(static_cast<double>(unacked_.size()));
  obs::MetricsRegistry::global()
      .counter("appclass_dist_link_sent_total")
      .inc();

  const std::vector<std::uint8_t>& frame = unacked_.back().bytes;
  if (!common::net::send_all(fd_, frame.data(), frame.size())) disconnect();
  // Opportunistically retire acks so the window rarely fills.
  if (fd_ >= 0 && !drain_acks(/*block=*/false)) disconnect();
  // A write/read failure leaves the frame in unacked_; the reconnect on
  // the next call resends it. The frame is committed either way.
  return true;
}

bool WorkerLink::flush() {
  while (!unacked_.empty()) {
    if (stop_requested()) return false;
    if (!ensure_connected()) return false;
    if (!drain_acks(/*block=*/true)) disconnect();
  }
  return true;
}

}  // namespace appclass::dist
