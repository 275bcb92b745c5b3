// The unified serving API: single-process, shard worker, and coordinator
// are three modes of one library-level surface.
//
// `appclass_cli serve` used to be a ~280-line monolith of flag parsing,
// state-dir wiring, drain loop, and signal handling. That block now
// lives here as `ServeOptions` (parsed once, by parse_serve_args, for
// every mode) and `ServeApp` (the run loop), so the CLI is a thin
// adapter and the distributed topology shares — rather than forks — the
// crash-safety, health, and observability plumbing:
//
//   * kSingle — the classic loop: replay the five canonical workload
//     streams through a FleetStream, scrape endpoint, optional
//     WAL/checkpoint state dir, optional supervisor.
//   * kWorker — identical plumbing, but snapshots arrive over a
//     dist::IngestListener socket instead of the local replay; acks are
//     written only after the WAL append, so the coordinator's
//     exactly-once window survives SIGKILL + supervised restart.
//   * kCoordinator — replays the canonical streams, shards them by node
//     ip over a dist::ShardMap, ships them to the workers through
//     dist::WorkerLink, and serves the merged fleet view (/composition,
//     /classes, /appdb, /workers, /replay) by scraping the workers'
//     own read-only routes — plus the fleet observability plane:
//     federated worker metrics (/fleet/metrics, /fleet/workers), the
//     stitched cross-process trace (/fleet/traces), and the multi-window
//     SLO verdict (/slo, folded into /healthz).
//
// Determinism contract (what the CI topology smoke proves): each node ip
// lives on exactly one shard, per-link TCP preserves the coordinator's
// announce order, and workers ingest serially in arrival order — so
// every node's OnlineClassifier evolves exactly as in single-process
// serve, and the merged composition text is byte-identical to the
// single-process /composition for the same --cycles replay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "persist/wal.hpp"

namespace appclass::serving {

enum class ServeMode { kSingle, kWorker, kCoordinator };

/// One shard worker, as the coordinator addresses it: the scrape port
/// serves the merge routes, the ingest port accepts snapshot frames.
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t scrape_port = 0;
  std::uint16_t ingest_port = 0;
};

struct ServeOptions {
  ServeMode mode = ServeMode::kSingle;
  std::string model_path;
  long long port = 9464;
  long long duration_s = 0;    ///< 0 = run until terminated
  /// Replay cycles before the stream stops and /replay reports complete
  /// (single + coordinator modes; 0 = replay until duration/signal).
  long long cycles = 0;
  long long drift_window = 0;  ///< 0 = ModelHealthOptions default
  /// Empty disables persistence; otherwise the crash-safety state
  /// directory (<dir>/wal + <dir>/checkpoints).
  std::string state_dir;
  persist::WalOptions wal;
  /// Non-empty drains between automatic checkpoints.
  long long checkpoint_every = 16;
  /// FleetStream buffer bound (0 = unbounded).
  long long max_backlog = 0;
  bool supervised = false;
  /// Worker mode: frame listener port (0 = ephemeral).
  long long ingest_port = 0;
  /// Coordinator mode: the shard fleet, in shard-index order.
  std::vector<WorkerEndpoint> workers;
  /// Coordinator mode: worker /metrics scrape period for the federated
  /// /fleet/metrics view; each scrape also feeds the availability SLI.
  long long fleet_scrape_every_ms = 1000;
  /// Coordinator mode: announce->durable latency above this is a bad
  /// freshness event for the SLO verdict (/slo, /healthz).
  long long slo_freshness_ms = 5000;
  /// Coordinator mode: the SLO short burn-rate window in seconds (the
  /// long window is 12x, the classic 5m/1h pairing at the default).
  long long slo_window_s = 300;
  /// Coordinator mode: shared objective percentage for both SLIs
  /// (99 -> 0.99 target good fraction).
  long long slo_objective_pct = 99;
  /// Engine execution width (the CLI forwards its global --threads).
  std::size_t threads = 1;
  core::OnlineOptions online;
};

struct ParseResult {
  /// Set on success; empty means "print nothing more and exit".
  std::optional<ServeOptions> options;
  /// Exit code when options is empty (usage errors print to stderr).
  int exit_code = 2;
};

/// Parses the serve flag vector (everything after the model path) into
/// options, enforcing per-mode flag validity. All error messages go to
/// stderr, exactly as the old in-CLI parser printed them.
ParseResult parse_serve_args(const std::string& model_path,
                             const std::vector<std::string>& flags);

/// Canonical plain-text rendering of an OnlineClassifier's state — the
/// /composition route body. Deterministic: nodes in map (lexicographic)
/// order, every counter and window entry included, so two classifiers
/// with equal state render byte-identically.
std::string composition_text(const core::OnlineClassifier& online);

/// Merges per-shard composition texts into the aggregate: node lines
/// pass through verbatim (re-sorted by ip), counters sum. Because each
/// node lives on exactly one shard, the merge of the shard texts equals
/// the single-process text by construction. Throws std::runtime_error
/// on a malformed part or a node ip claimed by two shards.
std::string merge_composition_texts(const std::vector<std::string>& parts);

/// Node ip a replayed canonical run is announced under: run r becomes
/// fleet node "10.0.<r>.1", so the five workloads are five distinct
/// monitored nodes (and shard across workers) instead of one
/// interleaved stream.
std::string replay_node_ip(std::size_t run_index);

class ServeApp {
 public:
  explicit ServeApp(ServeOptions options);

  /// Runs the configured mode to completion; with options.supervised,
  /// forks it under persist::Supervisor first. Returns the process exit
  /// code.
  int run();

 private:
  int run_mode();
  int run_node();         // kSingle and kWorker share one body
  int run_coordinator();

  ServeOptions options_;
};

}  // namespace appclass::serving
