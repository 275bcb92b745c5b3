#include "dist/serving.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/text.hpp"
#include "core/class_label.hpp"
#include "core/robustness.hpp"
#include "core/serialize.hpp"
#include "dist/http.hpp"
#include "dist/ingest.hpp"
#include "dist/link.hpp"
#include "dist/shard.hpp"
#include "engine/fleet.hpp"
#include "monitor/bus.hpp"
#include "obs/cardinality.hpp"
#include "obs/export.hpp"
#include "obs/federate.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/scrape.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/recovery.hpp"
#include "persist/supervisor.hpp"

namespace appclass::serving {

namespace {

/// Graceful-shutdown request flag, set by SIGTERM/SIGINT. Every mode's
/// loop polls it; shutdown then drains, flushes the WAL / the links,
/// writes a final checkpoint, and exits 0 (so a supervisor treating the
/// forwarded SIGTERM as "please stop" sees a clean exit, not a crash).
volatile std::sig_atomic_t g_serve_stop = 0;

void handle_serve_signal(int) { g_serve_stop = 1; }

/// A numeric serve flag: its value must be digits within [min, max],
/// else the parser prints `error`, a printf format taking the value.
struct NumericFlag {
  std::string_view prefix;
  long long* target;
  long long min;
  long long max;
  const char* error;
  bool coordinator_only = false;  ///< counts toward the fleet-flag check
};

constexpr long long kNoMax = std::numeric_limits<long long>::max();

/// --mode values, in ServeMode order.
constexpr std::array<std::string_view, 3> kModeNames = {"single", "worker",
                                                        "coordinator"};

constexpr std::string_view kCompositionHeader = "appclass-composition v1";

/// Snapshots announced per run per replay cycle (the historical serve
/// loop's batch size, kept identical across single and coordinator modes
/// so their per-node announce orders match exactly).
constexpr std::size_t kAnnouncesPerCycle = 32;

/// Plain-text app-DB view: one "ip class" line per node, the class being
/// the debounced stable class ("-" while undecided). Deterministic
/// (export_state node order), so the coordinator can merge by sorting.
std::string appdb_text(const core::OnlineStateImage& state) {
  std::string out;
  for (const auto& node : state.nodes) {
    out += node.node_ip;
    out += ' ';
    out += node.stable_class ? core::to_string(*node.stable_class) : "-";
    out += '\n';
  }
  return out;
}

/// Plain-text per-class sample counts ("name count" per line, class
/// order) — the distilled scorecard a worker exposes on /shard/classes
/// for the coordinator's merged /classes.
std::string shard_classes_text(const obs::ModelHealth& health) {
  const auto counts = health.class_sample_counts();
  std::string out;
  for (std::size_t i = 0; i < counts.size() && i < core::kClassCount; ++i) {
    out += core::kClassNames[i];
    out += ' ';
    out += std::to_string(counts[i]);
    out += '\n';
  }
  return out;
}

/// The canonical workload streams the single and coordinator modes
/// replay.
std::vector<core::RecordedRun> record_replay_runs() {
  std::printf("recording canonical workload streams for replay...\n");
  std::fflush(stdout);
  return core::record_canonical_runs();
}

/// Every mode's scrape endpoint: loopback, on --port.
obs::ScrapeServerOptions scrape_options(const ServeOptions& config) {
  return {.bind_address = "127.0.0.1",
          .port = static_cast<std::uint16_t>(config.port),
          // A restarted worker may race its predecessor's dying socket.
          .bind_retries = 4,
          // Trace dumps walk every thread ring under locks; a scrape loop
          // pointed at /traces/recent must not become a recording stall.
          .trace_dump_min_interval_ms = 100};
}

/// Binds the scrape endpoint, printing the startup error if it cannot.
bool start_scrape(obs::ScrapeServer& server, const ServeOptions& config) {
  if (server.start()) return true;
  std::fprintf(stderr, "serve: cannot bind 127.0.0.1:%lld\n", config.port);
  return false;
}

/// Replay progress: advanced by the replay loop, read by /replay.
struct ReplayProgress {
  /// True once a bounded replay (--cycles) has announced every cycle.
  bool finished() const { return cycles > 0 && cycles_done.load() >= cycles; }

  const long long cycles;  ///< --cycles (0 = unbounded)
  std::atomic<std::uint64_t> announced{0};
  std::atomic<long long> cycles_done{0};
  /// Set once a finished replay is drained (single) or acked (coordinator).
  std::atomic<bool> delivered{false};
};

/// Every mode's main loop, run until the --duration deadline or a stop
/// signal. While cycles remain, a pass replays one cycle of `runs`: the
/// next kAnnouncesPerCycle snapshots of each canonical run, in run
/// order, each announced as that run's replay_node_ip. `announce`
/// returns false once the mode is stopping, which leaves the cycle
/// uncounted. `after_pass(replayed)` follows every pass, then a 25 ms
/// sleep.
void run_replay_loop(
    const ServeOptions& config, const std::vector<core::RecordedRun>& runs,
    ReplayProgress& progress,
    const std::function<bool(const metrics::Snapshot&)>& announce,
    const std::function<void(bool replayed)>& after_pass) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(config.duration_s);
  for (std::size_t cycle = 0; g_serve_stop == 0; ++cycle) {
    const bool replaying = !runs.empty() && !progress.finished();
    bool whole_cycle = replaying;
    for (std::size_t r = 0; whole_cycle && r < runs.size(); ++r) {
      const auto& announcements = runs[r].announcements;
      // Each canonical run is announced as its own fleet node, so the
      // five workloads shard as five monitored nodes.
      const std::string node_ip = replay_node_ip(r);
      for (std::size_t n = 0;
           whole_cycle && n < kAnnouncesPerCycle && !announcements.empty();
           ++n) {
        metrics::Snapshot snapshot =
            announcements[(cycle * kAnnouncesPerCycle + n) %
                          announcements.size()];
        snapshot.node_ip = node_ip;
        whole_cycle = announce(snapshot);
      }
    }
    if (whole_cycle) progress.cycles_done.fetch_add(1);
    after_pass(replaying);
    if (config.duration_s > 0 &&
        std::chrono::steady_clock::now() >= deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

}  // namespace

std::string replay_node_ip(std::size_t run_index) {
  return "10.0." + std::to_string(run_index) + ".1";
}

std::string composition_text(const core::OnlineClassifier& online) {
  const core::OnlineStateImage state = online.export_state();
  std::ostringstream out;
  out << kCompositionHeader << '\n';
  out << "classified " << state.classified << '\n';
  out << "abstained " << state.abstained << '\n';
  for (const auto& node : state.nodes) {
    out << "node " << node.node_ip << " first " << node.first_time
        << " coverage ";
    char coverage[32];
    std::snprintf(coverage, sizeof coverage, "%.17g", node.coverage);
    out << coverage << " stable "
        << (node.stable_class ? core::to_string(*node.stable_class) : "-")
        << " candidate " << core::to_string(node.candidate) << " streak "
        << node.candidate_streak << " window ";
    if (node.window.empty()) {
      out << '-';
    } else {
      for (std::size_t i = 0; i < node.window.size(); ++i) {
        if (i) out << ',';
        out << node.window[i].first << ':'
            << core::to_string(node.window[i].second);
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string merge_composition_texts(const std::vector<std::string>& parts) {
  std::uint64_t classified = 0;
  std::uint64_t abstained = 0;
  std::map<std::string, std::string> node_lines;  // ip -> full line
  for (const std::string& part : parts) {
    std::istringstream in(part);
    std::string line;
    if (!std::getline(in, line) || line != kCompositionHeader)
      throw std::runtime_error("merge: bad composition header");
    for (const char* key : {"classified ", "abstained "}) {
      if (!std::getline(in, line) || line.rfind(key, 0) != 0)
        throw std::runtime_error("merge: missing counter line");
      const auto value = common::parse_int(line.substr(std::strlen(key)));
      if (!value)
        throw std::runtime_error("merge: bad counter value");
      (key[0] == 'c' ? classified : abstained) +=
          static_cast<std::uint64_t>(*value);
    }
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line.rfind("node ", 0) != 0)
        throw std::runtime_error("merge: unexpected line: " + line);
      const std::size_t ip_end = line.find(' ', 5);
      if (ip_end == std::string::npos)
        throw std::runtime_error("merge: truncated node line");
      const std::string ip = line.substr(5, ip_end - 5);
      // Sharding places each node on exactly one worker; two workers
      // claiming one ip means the shard map and the fleet disagree.
      if (!node_lines.emplace(ip, line).second)
        throw std::runtime_error("merge: node " + ip +
                                 " reported by two shards");
    }
  }
  std::ostringstream out;
  out << kCompositionHeader << '\n';
  out << "classified " << classified << '\n';
  out << "abstained " << abstained << '\n';
  for (const auto& [ip, line] : node_lines) out << line << '\n';
  return out.str();
}

ParseResult parse_serve_args(const std::string& model_path,
                             const std::vector<std::string>& flags) {
  ServeOptions config;
  config.model_path = model_path;
  auto sync_every = static_cast<long long>(config.wal.sync_every);
  const NumericFlag numeric_flags[] = {
      {"--drift-window=", &config.drift_window, 0, kNoMax,
       "serve: bad drift window '%s'\n"},
      {"--port=", &config.port, 0, 65535, "serve: bad port '%s'\n"},
      {"--ingest-port=", &config.ingest_port, 0, 65535,
       "serve: bad ingest port '%s'\n"},
      {"--duration=", &config.duration_s, 0, kNoMax,
       "serve: bad duration '%s'\n"},
      {"--cycles=", &config.cycles, 0, kNoMax,
       "serve: bad cycle count '%s'\n"},
      {"--sync-every=", &sync_every, 1, kNoMax,
       "serve: bad sync interval '%s'\n"},
      {"--checkpoint-every=", &config.checkpoint_every, 1, kNoMax,
       "serve: bad checkpoint interval '%s'\n"},
      {"--max-backlog=", &config.max_backlog, 0, kNoMax,
       "serve: bad backlog bound '%s'\n"},
      {"--fleet-scrape-every=", &config.fleet_scrape_every_ms, 1, kNoMax,
       "serve: bad fleet scrape period '%s'\n", true},
      {"--slo-freshness-ms=", &config.slo_freshness_ms, 1, kNoMax,
       "serve: bad freshness threshold '%s'\n", true},
      {"--slo-window=", &config.slo_window_s, 1, 86400,
       "serve: bad SLO window '%s' (seconds, <= 1d)\n", true},
      {"--slo-objective=", &config.slo_objective_pct, 1, 99,
       "serve: bad SLO objective '%s' (percent, 1-99)\n", true},
  };
  bool saw_fleet_flag = false;
  for (const auto& flag : flags) {
    const NumericFlag* numeric = std::find_if(
        std::begin(numeric_flags), std::end(numeric_flags),
        [&flag](const NumericFlag& f) { return flag.starts_with(f.prefix); });
    if (numeric != std::end(numeric_flags)) {
      const std::string value = flag.substr(numeric->prefix.size());
      const auto parsed = common::parse_int(value);
      if (!parsed || *parsed < numeric->min || *parsed > numeric->max) {
        std::fprintf(stderr, numeric->error, value.c_str());
        return {};
      }
      *numeric->target = *parsed;
      saw_fleet_flag = saw_fleet_flag || numeric->coordinator_only;
    } else if (flag.rfind("--mode=", 0) == 0) {
      const std::string name = flag.substr(std::strlen("--mode="));
      const auto mode = std::find(kModeNames.begin(), kModeNames.end(), name);
      if (mode == kModeNames.end()) {
        std::fprintf(stderr,
                     "serve: bad mode '%s' (expected single, worker, "
                     "coordinator)\n",
                     name.c_str());
        return {};
      }
      config.mode = static_cast<ServeMode>(mode - kModeNames.begin());
    } else if (flag.rfind("--workers=", 0) == 0) {
      std::istringstream list(flag.substr(std::strlen("--workers=")));
      for (std::string token; std::getline(list, token, ',');) {
        const std::size_t colon = token.find(':');
        const auto scrape = common::parse_int(token.substr(0, colon));
        const auto ingest = colon == std::string::npos
                                ? std::nullopt
                                : common::parse_int(token.substr(colon + 1));
        if (!scrape || !ingest || *scrape < 1 || *scrape > 65535 ||
            *ingest < 1 || *ingest > 65535) {
          std::fprintf(stderr,
                       "serve: bad worker '%s' (expected "
                       "SCRAPE_PORT:INGEST_PORT)\n",
                       token.c_str());
          return {};
        }
        config.workers.push_back(
            {.host = "127.0.0.1",
             .scrape_port = static_cast<std::uint16_t>(*scrape),
             .ingest_port = static_cast<std::uint16_t>(*ingest)});
      }
      if (config.workers.empty()) {
        std::fprintf(stderr, "serve: --workers needs at least one entry\n");
        return {};
      }
    } else if (flag.rfind("--state-dir=", 0) == 0) {
      config.state_dir = flag.substr(std::strlen("--state-dir="));
      if (config.state_dir.empty()) {
        std::fprintf(stderr, "serve: --state-dir needs a path\n");
        return {};
      }
    } else if (flag.rfind("--fsync=", 0) == 0) {
      const std::string name = flag.substr(std::strlen("--fsync="));
      const auto policy = persist::fsync_policy_from_string(name);
      if (!policy) {
        std::fprintf(stderr,
                     "serve: bad fsync policy '%s' (expected always, "
                     "interval, never)\n",
                     name.c_str());
        return {};
      }
      config.wal.fsync = *policy;
    } else if (flag == "--supervised") {
      config.supervised = true;
    } else {
      std::fprintf(stderr, "serve: unknown flag '%s'\n", flag.c_str());
      return {};
    }
  }

  config.wal.sync_every = static_cast<std::size_t>(sync_every);

  // Per-mode flag validity: one parser, three modes, no silent ignores.
  // The first misuse found is the one reported.
  const bool coordinator = config.mode == ServeMode::kCoordinator;
  const bool worker = config.mode == ServeMode::kWorker;
  const std::pair<bool, const char*> misuses[] = {
      {!coordinator && !config.workers.empty(),
       "serve: --workers only applies to --mode=coordinator\n"},
      {!worker && config.ingest_port != 0,
       "serve: --ingest-port only applies to --mode=worker\n"},
      {worker && config.cycles != 0,
       "serve: --cycles applies to the replaying modes (single, "
       "coordinator), not worker\n"},
      {!coordinator && saw_fleet_flag,
       "serve: --fleet-scrape-every/--slo-* only apply to "
       "--mode=coordinator\n"},
      {coordinator && config.workers.empty(),
       "serve: --mode=coordinator requires --workers\n"},
      {coordinator && !config.state_dir.empty(),
       "serve: the coordinator is stateless; --state-dir belongs on the "
       "workers\n"},
  };
  for (const auto& [misused, message] : misuses) {
    if (misused) {
      std::fputs(message, stderr);
      return {};
    }
  }
  return {.options = std::move(config), .exit_code = 0};
}

ServeApp::ServeApp(ServeOptions options) : options_(std::move(options)) {}

int ServeApp::run_mode() {
  // Every mode's prologue: the stop signals, then the restart ordinal.
  // Under --supervised the watchdog's registry lives in another process;
  // the ordinal reaches the worker's /metrics via environment.
  g_serve_stop = 0;
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGINT, handle_serve_signal);
  if (const char* env = std::getenv(persist::kRestartsEnvVar)) {
    if (const auto ordinal = common::parse_int(env))
      obs::MetricsRegistry::global()
          .gauge("appclass_supervised_restart_ordinal")
          .set(static_cast<double>(*ordinal));
  }
  return options_.mode == ServeMode::kCoordinator ? run_coordinator()
                                                  : run_node();
}

int ServeApp::run() {
  if (!options_.supervised) return run_mode();

  // Everything state-dependent (model load, recovery, serving) runs in
  // the forked child, so a poisoned state directory kills only the
  // worker — and the crash-loop detector turns "can never come up" into
  // a clean supervisor exit instead of an infinite restart burn.
  persist::Supervisor supervisor;
  const persist::SupervisorResult result =
      supervisor.run([this] { return run_mode(); });
  std::printf("supervisor: worker exited %d after %zu restart%s%s%s\n",
              result.exit_code, result.restarts,
              result.restarts == 1 ? "" : "s",
              result.crash_loop ? " (crash loop)" : "",
              result.terminated ? " (terminated)" : "");
  if (result.crash_loop) return 1;
  return result.exit_code;
}

int ServeApp::run_node() {
  const ServeOptions& config = options_;
  const bool is_worker = config.mode == ServeMode::kWorker;

  core::ClassificationPipeline pipeline =
      core::load_pipeline_file(config.model_path);
  pipeline.set_parallelism(config.threads);

  const std::vector<core::RecordedRun> runs =
      is_worker ? std::vector<core::RecordedRun>() : record_replay_runs();

  monitor::MetricBus bus;
  engine::FleetStream stream(pipeline, config.online,
                             static_cast<std::size_t>(config.max_backlog));

  // Model-health aggregator: fed by every drained snapshot (the detailed
  // classify path), read by the scorecard routes, /healthz, and the
  // --stats-every ticker. Strictly observational — labels are identical
  // with or without it. Attached before recovery so WAL replay runs the
  // same detailed arithmetic the live drain will.
  obs::ModelHealth health(core::make_health_options(
      static_cast<std::size_t>(config.drift_window)));
  stream.online().attach_health(&health);
  obs::ModelHealth::set_instance(&health);
  // Unpublished on every exit, before `health` is destroyed.
  const std::unique_ptr<obs::ModelHealth, void (*)(obs::ModelHealth*)>
      published(&health, [](obs::ModelHealth*) {
        obs::ModelHealth::set_instance(nullptr);
      });

  // Crash safety: recover checkpoint + WAL tail, then log every accepted
  // push (under the stream lock, so log order == ingest order) and
  // checkpoint periodically. All of it is off unless --state-dir is set.
  std::uint64_t recovered_wal_next = 0;
  std::optional<persist::WalWriter> wal;
  if (!config.state_dir.empty()) {
    if (::mkdir(config.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "serve: cannot create state dir %s: %s\n",
                   config.state_dir.c_str(), std::strerror(errno));
      return 1;
    }
    const persist::RecoveryReport report =
        persist::recover(config.state_dir, pipeline, stream.online());
    recovered_wal_next = report.wal_next_seq;
    if (report.checkpoint_loaded || report.replayed > 0)
      std::printf(
          "recovered state: checkpoint %s (wal-next %llu), %llu WAL "
          "records replayed%s in %.3fs\n",
          report.checkpoint_loaded ? "loaded" : "absent",
          static_cast<unsigned long long>(report.checkpoint_wal_next),
          static_cast<unsigned long long>(report.replayed),
          report.wal_truncated ? " (torn tail dropped)" : "",
          report.seconds);
    wal.emplace(config.state_dir + "/wal", config.wal, report.wal_next_seq);
    stream.set_ingest_hook([&wal](const metrics::Snapshot& snapshot) {
      return wal->append(snapshot);
    });
  }
  if (!is_worker) stream.attach(bus);

  // Guards OnlineClassifier state between the drain loop and the scrape
  // handlers that export it (/composition, /appdb): online() is not safe
  // against a concurrent drain.
  std::mutex state_mutex;

  // Folds the buffered snapshots into the classifier. With a state dir,
  // every --checkpoint-every non-empty drains and the `final` one end in
  // a checkpoint barrier: WAL synced first so the claimed horizon is
  // durable, then the state image lands atomically, then fully-covered
  // segments are pruned.
  std::size_t classified = 0;
  long long drains_since_checkpoint = 0;
  const auto drain = [&](bool final) {
    const std::lock_guard lock(state_mutex);
    const std::size_t drained = stream.drain();
    classified += drained;
    if (drained > 0) ++drains_since_checkpoint;
    if (!wal || (!final && drains_since_checkpoint < config.checkpoint_every))
      return;
    drains_since_checkpoint = 0;
    wal->sync();
    persist::CheckpointData data;
    data.wal_next =
        std::max(recovered_wal_next, stream.ingested_wal_horizon());
    data.options = stream.online().options();
    data.online = stream.online().export_state();
    persist::write_checkpoint(config.state_dir + "/checkpoints", data);
    if (data.wal_next > 0) wal->prune_through(data.wal_next - 1);
  };

  // Worker mode: the frame listener replaces the local replay. The sink
  // routes through the same push path the bus would use, so the WAL
  // hook, backlog bound, and grid filter behave identically; acks are
  // written by the listener only after push (and therefore the WAL
  // append) returns.
  std::optional<dist::IngestListener> listener;
  if (is_worker) {
    listener.emplace(
        dist::IngestListenerOptions{
            .port = static_cast<std::uint16_t>(config.ingest_port),
            .sampling_interval_s = config.online.sampling_interval_s},
        [&stream](const metrics::Snapshot& snapshot) {
          return stream.push(snapshot);
        },
        recovered_wal_next);
    if (!listener->start()) {
      std::fprintf(stderr, "serve: cannot bind ingest port %lld\n",
                   config.ingest_port);
      return 1;
    }
  }

  ReplayProgress progress{config.cycles};

  obs::ScrapeServer server(scrape_options(config));
  server.add_route("/classes", "application/json",
                   [&health] { return health.classes_json(); });
  server.add_route("/drift", "application/json",
                   [&health] { return health.drift_json(); });
  server.add_route("/nodes", "application/json",
                   [&health] { return health.nodes_json(); });
  server.add_route("/composition", "text/plain; version=1",
                   [&stream, &state_mutex] {
                     const std::lock_guard lock(state_mutex);
                     return composition_text(stream.online());
                   });
  server.add_route("/appdb", "text/plain; version=1",
                   [&stream, &state_mutex] {
                     const std::lock_guard lock(state_mutex);
                     return appdb_text(stream.online().export_state());
                   });
  server.add_route("/shard/classes", "text/plain; version=1",
                   [&health] { return shard_classes_text(health); });
  server.add_route(
      "/replay", "application/json",
      [&, is_worker] {
        std::ostringstream out;
        if (is_worker) {
          out << "{\"mode\":\"worker\",\"expected\":" << listener->expected()
              << ",\"backlog\":" << stream.backlog()
              << ",\"duplicates\":" << listener->duplicates()
              << ",\"connections\":" << listener->connections() << "}";
        } else {
          out << "{\"mode\":\"single\",\"cycles\":" << config.cycles
              << ",\"cycles_done\":" << progress.cycles_done.load()
              << ",\"announced\":" << progress.announced.load()
              << ",\"backlog\":" << stream.backlog() << ",\"complete\":"
              << (progress.delivered.load() ? "true" : "false") << "}";
        }
        return out.str();
      });
  server.set_health_check([&health] {
    const obs::ModelHealth::Status status = health.status();
    return obs::HealthVerdict{status.healthy, status.reason_json};
  });
  if (!start_scrape(server, config)) return 1;
  std::printf("serving on 127.0.0.1:%u (/metrics /healthz /traces/recent"
              " /classes /drift /nodes)%s%s\n",
              server.port(),
              wal ? " with WAL + checkpoints" : "",
              config.duration_s > 0 ? "" : "; interrupt to stop");
  if (is_worker)
    std::printf("worker ingest on 127.0.0.1:%u (expecting seq %llu)\n",
                listener->port(),
                static_cast<unsigned long long>(listener->expected()));
  std::fflush(stdout);

  // Replay the recorded announcement streams cyclically through the bus
  // (single mode; workers are fed by the listener instead). The
  // FleetStream grid-samples, batches, and classifies, so every scrape
  // sees live pipeline + engine metrics (and spans when tracing).
  run_replay_loop(
      config, runs, progress,
      [&](const metrics::Snapshot& snapshot) {
        bus.announce(snapshot);
        progress.announced.fetch_add(1, std::memory_order_relaxed);
        return true;
      },
      [&](bool) {
        drain(false);
        if (!runs.empty() && progress.finished() && stream.backlog() == 0)
          progress.delivered.store(true, std::memory_order_release);
      });

  // Graceful shutdown: stop accepting, fold in whatever is buffered,
  // make the log durable, and leave a checkpoint covering all of it.
  if (listener) listener->stop();
  stream.detach();
  drain(true);
  server.stop();
  if (g_serve_stop != 0) std::printf("shutdown signal: drained and flushed\n");
  if (is_worker)
    std::printf("served %llu ingested frames (%zu classified)\n",
                static_cast<unsigned long long>(listener->expected() -
                                                recovered_wal_next),
                classified);
  else
    std::printf("served %zu announcements (%zu classified)\n",
                static_cast<std::size_t>(progress.announced.load()),
                classified);
  std::printf("%s\n", health.summary_line().c_str());
  return 0;
}

int ServeApp::run_coordinator() {
  const ServeOptions& config = options_;
  const std::vector<core::RecordedRun> runs = record_replay_runs();

  // SLO verdict for the whole fleet: freshness fed by the links' durable
  // acks (below), availability by the federation scraper's probe results.
  obs::SloTracker slo(
      {.objective = static_cast<double>(config.slo_objective_pct) / 100.0,
       .freshness_threshold_s =
           static_cast<double>(config.slo_freshness_ms) * 1e-3,
       .short_window_s = static_cast<int>(config.slo_window_s)});

  const dist::ShardMap shard_map(config.workers.size());
  std::vector<std::unique_ptr<dist::WorkerLink>> links;
  links.reserve(config.workers.size());
  for (const WorkerEndpoint& worker : config.workers)
    links.push_back(std::make_unique<dist::WorkerLink>(
        worker.host, worker.ingest_port,
        dist::WorkerLinkOptions{
            .should_stop = [] { return g_serve_stop != 0; },
            .on_durable = [&slo](double e2e_s) {
              slo.record_freshness(e2e_s, obs::SloTracker::now_s());
            }}));

  auto& announced_total =
      obs::MetricsRegistry::global().counter("appclass_dist_announced_total");
  ReplayProgress progress{config.cycles};

  // --- Metrics federation -----------------------------------------------
  // A background scraper pulls every worker's /metrics on a fixed
  // period, re-parses the text exposition, and caches the merged fleet
  // registry — /fleet/metrics serves from this cache instead of fanning
  // out per request, and every probe outcome feeds the availability SLI.
  // A worker that stops answering keeps its last-good snapshot in the
  // merge (stale beats absent mid-incident); its scrape health says so.
  struct WorkerScrape {
    std::uint64_t scrapes = 0;
    std::uint64_t failures = 0;
    std::uint64_t consecutive_failures = 0;
    std::uint64_t parse_errors = 0;
    std::string last_error = "never";  ///< last outcome ("ok", "connect"...)
    std::size_t last_bytes = 0;
  };
  std::mutex fleet_mutex;
  std::string fleet_metrics_text;
  std::size_t fleet_dropped_series = 0;
  long long fleet_last_scrape_us = 0;
  std::vector<WorkerScrape> worker_scrapes(config.workers.size());
  std::vector<std::optional<obs::RegistrySnapshot>> last_parsed(
      config.workers.size());
  obs::BoundedLabelSet worker_labels(config.workers.size() + 1);
  std::atomic<bool> fleet_stop{false};

  // All merge routes are assembled by scraping the workers' own
  // read-only routes — the coordinator holds no classifier state.
  const auto fetch_all = [&config](const std::string& path)
      -> std::optional<std::vector<std::string>> {
    std::vector<std::string> bodies;
    for (const WorkerEndpoint& worker : config.workers) {
      dist::HttpResult r =
          dist::http_get_ex(worker.host, worker.scrape_port, path);
      if (!r.ok()) return std::nullopt;
      bodies.push_back(std::move(r.body));
    }
    return bodies;
  };

  obs::ScrapeServer server(scrape_options(config));
  server.add_route("/composition", "text/plain; version=1", [&] {
    const auto parts = fetch_all("/composition");
    if (!parts) return std::string("merge-error: worker unreachable\n");
    try {
      return merge_composition_texts(*parts);
    } catch (const std::exception& e) {
      return std::string("merge-error: ") + e.what() + "\n";
    }
  });
  server.add_route("/classes", "application/json", [&] {
    const auto parts = fetch_all("/shard/classes");
    if (!parts) return std::string("{\"error\":\"worker unreachable\"}");
    std::array<std::uint64_t, core::kClassCount> counts{};
    for (const std::string& part : *parts) {
      std::istringstream in(part);
      std::string name;
      std::uint64_t value = 0;
      while (in >> name >> value) {
        const auto cls = core::class_from_string(name);
        if (cls) counts[core::index_of(*cls)] += value;
      }
    }
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    std::ostringstream out;
    out << "{\"total_samples\":" << total
        << ",\"workers\":" << config.workers.size() << ",\"classes\":[";
    for (std::size_t i = 0; i < core::kClassCount; ++i) {
      if (i) out << ',';
      out << "{\"class\":\"" << core::kClassNames[i]
          << "\",\"samples\":" << counts[i] << '}';
    }
    out << "]}";
    return out.str();
  });
  server.add_route("/appdb", "text/plain; version=1", [&] {
    const auto parts = fetch_all("/appdb");
    if (!parts) return std::string("merge-error: worker unreachable\n");
    std::map<std::string, std::string> rows;  // ip -> line (sorted merge)
    for (const std::string& part : *parts) {
      std::istringstream in(part);
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        rows.emplace(line.substr(0, line.find(' ')), line);
      }
    }
    std::string out;
    for (const auto& [ip, line] : rows) {
      out += line;
      out += '\n';
    }
    return out;
  });
  server.add_route("/workers", "application/json", [&] {
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (i) out << ',';
      out << "{\"shard\":" << i
          << ",\"scrape_port\":" << config.workers[i].scrape_port
          << ",\"ingest_port\":" << config.workers[i].ingest_port
          << ",\"sent\":" << links[i]->sent()
          << ",\"acked\":" << links[i]->acked()
          << ",\"reconnects\":" << links[i]->reconnects() << '}';
    }
    out << "]";
    return out.str();
  });
  server.add_route("/replay", "application/json", [&] {
    // Complete = every frame sent, acked (durable in a worker WAL), and
    // drained out of every worker's backlog — after which the merged
    // composition is final and safe to byte-compare.
    bool complete = progress.finished() && progress.delivered.load();
    if (complete) {
      const auto parts = fetch_all("/replay");
      complete = parts && std::all_of(parts->begin(), parts->end(),
                                      [](const std::string& body) {
                                        return body.find("\"backlog\":0,") !=
                                               std::string::npos;
                                      });
    }
    std::ostringstream out;
    out << "{\"mode\":\"coordinator\",\"cycles\":" << config.cycles
        << ",\"cycles_done\":" << progress.cycles_done.load()
        << ",\"announced\":" << progress.announced.load()
        << ",\"flushed\":" << (progress.delivered.load() ? "true" : "false")
        << ",\"complete\":" << (complete ? "true" : "false") << "}";
    return out.str();
  });
  server.add_route("/fleet/metrics",
                   "text/plain; version=0.0.4; charset=utf-8", [&] {
                     const std::lock_guard lock(fleet_mutex);
                     return fleet_metrics_text.empty()
                                ? std::string(
                                      "# federation: no worker scraped yet\n")
                                : fleet_metrics_text;
                   });
  server.add_route("/fleet/workers", "application/json", [&] {
    std::ostringstream out;
    const std::lock_guard lock(fleet_mutex);
    out << "{\"dropped_series\":" << fleet_dropped_series
        << ",\"last_scrape_us\":" << fleet_last_scrape_us
        << ",\"workers\":[";
    for (std::size_t i = 0; i < worker_scrapes.size(); ++i) {
      const WorkerScrape& health = worker_scrapes[i];
      if (i) out << ',';
      out << "{\"shard\":" << i
          << ",\"scrape_port\":" << config.workers[i].scrape_port
          << ",\"ingest_port\":" << config.workers[i].ingest_port
          << ",\"scrapes\":" << health.scrapes
          << ",\"failures\":" << health.failures
          << ",\"consecutive_failures\":" << health.consecutive_failures
          << ",\"parse_errors\":" << health.parse_errors
          << ",\"last_error\":\"" << health.last_error << '"'
          << ",\"last_bytes\":" << health.last_bytes
          << ",\"sent\":" << links[i]->sent()
          << ",\"acked\":" << links[i]->acked()
          << ",\"in_flight\":" << links[i]->in_flight()
          << ",\"reconnects\":" << links[i]->reconnects() << '}';
    }
    out << "]}";
    return out.str();
  });
  server.add_route("/fleet/traces", "application/json", [&] {
    // Live assembly (no cache): traces are an incident tool, and the
    // stitcher tolerates any subset of workers answering.
    std::vector<obs::TraceFleetPart> parts;
    parts.push_back({"coordinator", obs::TraceRecorder::global()
                                        .to_chrome_json(4 * 1024 * 1024)});
    for (std::size_t i = 0; i < config.workers.size(); ++i) {
      dist::HttpResult res =
          dist::http_get_ex(config.workers[i].host,
                            config.workers[i].scrape_port, "/traces/recent");
      if (res.ok())
        parts.push_back(
            {"worker-" + std::to_string(i), std::move(res.body)});
    }
    return obs::stitch_chrome_traces(parts).json;
  });
  server.add_route("/slo", "application/json", [&slo] {
    return slo.to_json(obs::SloTracker::now_s());
  });
  // The coordinator's liveness probe IS the SLO verdict: burning both
  // windows on either SLI turns /healthz 503 with the JSON report body.
  server.set_health_check([&slo] {
    const std::int64_t now = obs::SloTracker::now_s();
    return obs::HealthVerdict{slo.healthy(now), slo.to_json(now)};
  });
  if (!start_scrape(server, config)) return 1;
  // The federation scraper (state above) runs once the endpoint is bound.
  std::thread fleet_thread([&] {
    while (!fleet_stop.load(std::memory_order_acquire)) {
      const auto scrape_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < config.workers.size(); ++i) {
        const WorkerEndpoint& worker = config.workers[i];
        const dist::HttpResult res =
            dist::http_get_ex(worker.host, worker.scrape_port, "/metrics");
        slo.record_availability(res.ok(), obs::SloTracker::now_s());
        std::optional<obs::RegistrySnapshot> parsed;
        if (res.ok()) parsed = obs::parse_prometheus(res.body);
        const std::lock_guard lock(fleet_mutex);
        WorkerScrape& health = worker_scrapes[i];
        ++health.scrapes;
        if (parsed) {
          health.consecutive_failures = 0;
          health.last_error = "ok";
          health.last_bytes = res.body.size();
          last_parsed[i] = std::move(parsed);
        } else {
          ++health.failures;
          ++health.consecutive_failures;
          if (res.ok()) {
            // Reachable but emitting text the parser rejects — a schema
            // mismatch worth distinguishing from a dead worker.
            ++health.parse_errors;
            health.last_error = "parse";
          } else {
            health.last_error = dist::to_string(res.error);
          }
        }
      }
      {
        const std::lock_guard lock(fleet_mutex);
        std::vector<obs::FederationPart> parts;
        for (std::size_t i = 0; i < last_parsed.size(); ++i)
          if (last_parsed[i])
            parts.push_back({std::to_string(i), *last_parsed[i]});
        const obs::FederationResult merged =
            obs::federate_snapshots(parts, &worker_labels);
        fleet_metrics_text = obs::to_prometheus(merged.merged);
        fleet_dropped_series = merged.dropped_series;
        fleet_last_scrape_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - scrape_start)
                .count();
      }
      // Sleep the period in small slices so shutdown stays prompt.
      for (long long slept = 0;
           slept < config.fleet_scrape_every_ms &&
           !fleet_stop.load(std::memory_order_acquire);
           slept += 20)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::printf("coordinating %zu workers on 127.0.0.1:%u (/metrics /healthz"
              " /composition /classes /appdb /workers /replay"
              " /fleet/metrics /fleet/workers /fleet/traces /slo)%s\n",
              config.workers.size(), server.port(),
              config.duration_s > 0 ? "" : "; interrupt to stop");
  std::fflush(stdout);

  run_replay_loop(
      config, runs, progress,
      [&](const metrics::Snapshot& snapshot) {
        // The coordinator filters to the sampling grid *before* numbering
        // frames — that is what keeps frame seq == worker WAL seq, the
        // invariant exactly-once resume rests on.
        if (snapshot.time % config.online.sampling_interval_s != 0)
          return true;
        const std::size_t shard = shard_map.shard_for(snapshot.node_ip);
        obs::TraceSpan span("dist_announce");
        if (span.recording()) {
          span.add_attr({"node", snapshot.node_ip});
          span.add_attr({"shard", shard});
        }
        if (!links[shard]->send(snapshot, span.context())) return false;
        progress.announced.fetch_add(1, std::memory_order_relaxed);
        announced_total.inc();
        return true;
      },
      [&](bool replayed) {
        if (!replayed || !progress.finished()) return;
        bool all = true;
        for (const auto& link : links) all = link->flush() && all;
        if (all) progress.delivered.store(true, std::memory_order_release);
      });

  // Shutdown: push what remains to the workers (bounded by the stop
  // flag — a dead worker cannot wedge a terminating coordinator).
  fleet_stop.store(true, std::memory_order_release);
  fleet_thread.join();
  std::uint64_t acked = 0;
  for (const auto& link : links) {
    link->flush();
    acked += link->acked();
  }
  server.stop();
  if (g_serve_stop != 0) std::printf("shutdown signal: links flushed\n");
  std::printf("announced %llu frames to %zu workers (%llu acked)\n",
              static_cast<unsigned long long>(progress.announced.load()),
              links.size(), static_cast<unsigned long long>(acked));
  return 0;
}

}  // namespace appclass::serving
