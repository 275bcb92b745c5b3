// Coordinator-side link to one shard worker's ingest listener.
//
// A WorkerLink owns the TCP connection, the per-shard sequence counter,
// and the sliding window of sent-but-unacked frames that makes delivery
// exactly-once across worker crashes:
//
//   * connect reads the worker's hello (its durable WAL horizon). On the
//     first connect the link adopts it as the starting sequence number
//     (a worker resuming from a checkpointed state dir starts mid-
//     sequence); on reconnects, unacked frames below the horizon were
//     durable before the crash and are retired, the rest are resent in
//     order.
//   * send() stamps the next sequence number, buffers the encoded frame
//     in the unacked window, and writes it. When the window is full (64
//     frames) the call blocks draining acks — bounded in-flight data is
//     the backpressure: a worker that stops acking stops the coordinator.
//   * a send/recv failure tears the connection down and the next call
//     reconnects with exponential backoff (100 ms doubling to 2 s),
//     retrying until the stop predicate fires — a SIGKILLed worker being
//     restarted by its supervisor looks like a long reconnect, not data
//     loss.
//
// Single-threaded by design: the coordinator's replay loop is the only
// caller, so per-link ordering (the property the bit-identical aggregate
// rests on) needs no locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "metrics/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::dist {

struct WorkerLinkOptions {
  /// Socket read/write timeouts; an ack wait that trips this tears the
  /// connection down and reconnects.
  int io_timeout_ms = 2000;
  /// Checked between connect attempts and ack waits; true aborts the
  /// operation (graceful shutdown mid-retry).
  std::function<bool()> should_stop;
  /// Called once per frame when it becomes durable on the worker, with
  /// the announce->durable latency in seconds — the freshness SLI feed
  /// (obs::SloTracker). Runs on the replay thread; keep it cheap.
  std::function<void(double)> on_durable;
};

class WorkerLink {
 public:
  WorkerLink(std::string host, std::uint16_t port,
             WorkerLinkOptions options = {});
  ~WorkerLink();

  WorkerLink(const WorkerLink&) = delete;
  WorkerLink& operator=(const WorkerLink&) = delete;

  /// Sends one snapshot (next sequence number, carrying `trace`).
  /// Blocks while the window is full or the worker is down; false only
  /// when the stop predicate fired before the frame was written.
  bool send(const metrics::Snapshot& snapshot,
            const obs::TraceContext& trace);

  /// Blocks until every sent frame is acked (== durable in the worker's
  /// WAL); false when the stop predicate fired first.
  bool flush();

  // Stats are atomics so a scrape-route handler on another thread can
  // read them while the replay loop sends.
  std::uint64_t sent() const noexcept {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t acked() const noexcept {
    return acked_.load(std::memory_order_relaxed);
  }
  std::uint64_t reconnects() const noexcept {
    return reconnects_.load(std::memory_order_relaxed);
  }
  std::size_t in_flight() const noexcept { return unacked_.size(); }
  bool connected() const noexcept { return fd_ >= 0; }

  const std::string& host() const noexcept { return host_; }
  std::uint16_t port() const noexcept { return port_; }

 private:
  struct Pending {
    std::uint64_t seq;
    std::vector<std::uint8_t> bytes;
    std::uint64_t announce_us = 0;     ///< wall clock at first send
    std::uint64_t trace_id = 0;        ///< for slow-sample exemplars
    std::int64_t sent_steady_us = 0;   ///< monotonic, reset on resend
  };

  bool ensure_connected();
  void disconnect();
  bool stop_requested() const;
  /// Reads acks; `block` waits for at least one (up to the timeout).
  bool drain_acks(bool block);
  void apply_ack(std::uint64_t seq);
  /// Retires the head unacked frame: e2e latency histograms, exemplars,
  /// and the on_durable hook. `acked_on_wire` false = retired via a
  /// reconnect hello horizon (no RTT sample: the ack never arrived).
  void retire_front(bool acked_on_wire);

  std::string host_;
  std::uint16_t port_;
  WorkerLinkOptions options_;
  // Cached per-link series (peer-labeled through a BoundedLabelSet so a
  // misconfigured fleet cannot mint unbounded cardinality).
  obs::Histogram& e2e_durable_hist_;
  obs::Histogram& ack_rtt_hist_;
  obs::Gauge& horizon_lag_gauge_;
  int fd_ = -1;
  bool seq_adopted_ = false;
  std::uint64_t next_seq_ = 0;
  std::deque<Pending> unacked_;
  std::vector<std::uint8_t> ack_buffer_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace appclass::dist
