// Worker-side ingest listener for the distributed serving path.
//
// Accepts one coordinator connection at a time and turns the frame
// stream into sink() calls, enforcing the exactly-once contract:
//
//   * On connect the listener sends a hello advertising `expected()` —
//     the sequence number of the next frame it will durably accept,
//     which recovery/checkpointing guarantee equals the worker's WAL
//     horizon. The coordinator resumes from exactly there.
//   * A frame with seq < expected is a retransmit of something already
//     durable: acked again (the first ack was lost with the connection)
//     and dropped without re-ingesting.
//   * A frame with seq == expected is handed to the sink. The sink must
//     make it durable before returning true (the serve layer routes it
//     through FleetStream::push, whose ingest hook appends to the WAL
//     inside the push lock); only then is the ack written. A false sink
//     (backlog full) closes the connection unacked — the coordinator
//     reconnects and resends, so backpressure surfaces as retry, never
//     as silent loss.
//   * A frame with seq > expected (a gap) or an off-grid snapshot is a
//     protocol error: the coordinator filters to the sampling grid
//     before assigning sequence numbers precisely so that frame seq ==
//     WAL seq stays an invariant; a client violating that cannot be
//     acked coherently and is disconnected.
//
// The frame's trace context is adopted around the sink call, so the
// worker-side `dist_ingest` span parents to the coordinator's
// `dist_announce` span and one snapshot yields a single span tree across
// the process boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/net.hpp"
#include "metrics/snapshot.hpp"

namespace appclass::dist {

struct IngestListenerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after start().
  std::uint16_t port = 0;
  /// Grid predicate parameter: frames whose time is not a multiple of
  /// this are protocol errors (see header comment).
  int sampling_interval_s = 5;
};

class IngestListener {
 public:
  /// `sink` must durably accept the snapshot before returning true.
  /// `start_seq` seeds expected() — pass the recovered WAL horizon.
  using Sink = std::function<bool(const metrics::Snapshot&)>;
  IngestListener(IngestListenerOptions options, Sink sink,
                 std::uint64_t start_seq);
  ~IngestListener();

  IngestListener(const IngestListener&) = delete;
  IngestListener& operator=(const IngestListener&) = delete;

  /// Binds, listens, and launches the accept thread. False (with an
  /// ERROR log) when the socket cannot be bound.
  bool start();

  /// Stops accepting, closes sockets, joins. Idempotent.
  void stop();

  /// The bound port (resolves port 0 requests); 0 before start().
  std::uint16_t port() const noexcept { return acceptor_.port(); }

  /// Next sequence number the listener will accept (== frames durably
  /// ingested when started at 0).
  std::uint64_t expected() const noexcept {
    return expected_.load(std::memory_order_acquire);
  }

  std::uint64_t duplicates() const noexcept {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::uint64_t protocol_errors() const noexcept {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void handle_connection(int fd);

  IngestListenerOptions options_;
  Sink sink_;
  std::atomic<std::uint64_t> expected_;
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> connections_{0};
  common::net::Acceptor acceptor_;
};

}  // namespace appclass::dist
