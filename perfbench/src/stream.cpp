// stream_ingest: in-process online serving at Ganglia cadence. Every node
// announces once per simulated second on a monitor::MetricBus; an
// engine::FleetStream attached to it keeps the on-grid fifth (d = 5 s),
// and its drain classifies the backlog and ingests it into the
// core::OnlineClassifier, with obs::ModelHealth and drift attached the
// way `appclass_cli serve` attaches them. The model is paper-size, so
// the bus, ring, online windows and health do most of the work.
//
// Phase 1 is a saturating closed loop (announce one round — a simulated
// second of the whole fleet — then drain, repeat). Phase 2 is an open
// loop: one generator thread announces on a fixed schedule while a
// drainer thread drains on a fixed cadence; freshness runs from each
// on-grid announce's due time to the return of the drain that ingested
// it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "dist/serving.hpp"
#include "engine/fleet.hpp"
#include "gen.hpp"
#include "monitor/bus.hpp"
#include "obs/health.hpp"
#include "persist/checkpoint.hpp"
#include "persist/recovery.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Fleet size. Per-node window, index, ring and health state together
/// exceed one core's L2. (First sightings of a node cost time linear in
/// the fleet in OnlineClassifier, so registering the fleet — done in
/// set-up — grows quadratically and bounds this figure.)
constexpr std::size_t kNodes = 4096;
/// Open-loop offered load, announces per second (a fifth are on-grid).
constexpr double kOfferedAnnouncesPerS = 400000.0;
/// The drainer's fixed cadence in the open loop: `appclass_cli serve`
/// drains every 25 ms. (At 5 ms, drain time and wake-up jitter were a
/// large share of freshness and its p90 swung by half with the
/// neighbours.)
constexpr std::int64_t kDrainPeriodNs = 25'000'000;
constexpr metrics::SimTime kGrid = Fleet::kGrid;
/// Traced passes time 1 in kSample pushes (weighted by kSample): a push
/// is too short for a span around every one to leave it unperturbed.
constexpr std::uint64_t kSample = 16;
constexpr int kSetupReps = 5;
constexpr int kRecoverReps = 9;
/// Phase shares of --seconds.
constexpr double kSaturatingShare = 0.4;
constexpr double kOpenShare = 0.45;
constexpr double kTracedShare = 0.25;
/// Untraced/traced chunk pairs in the traced run's saturating phase.
constexpr int kTracePairs = 4;

/// One in-process server: bus -> FleetStream -> OnlineClassifier, with
/// the health aggregator attached.
struct Server {
  explicit Server(const core::ClassificationPipeline& pipeline)
      : stream(pipeline), health(core::make_health_options()) {
    stream.online().attach_health(&health);
  }
  monitor::MetricBus bus;
  engine::FleetStream stream;
  obs::ModelHealth health;
};

/// Announce listener for the traced passes: the same FleetStream::push
/// that attach() subscribes, wrapped so a sampled announce can time it.
struct PushProbe {
  engine::FleetStream* stream = nullptr;
  Tracer* tracer = nullptr;
  bool sampled = false;
  std::uint64_t accepted = 0;
  std::uint64_t filtered = 0;

  void operator()(const metrics::Snapshot& s) {
    if (stream->online().on_grid(s))
      ++accepted;
    else
      ++filtered;
    if (sampled) {
      Span span(tracer, "engine.fleet.push", static_cast<double>(kSample));
      stream->push(s);
    } else {
      stream->push(s);
    }
  }
};

struct RoundsOutcome {
  metrics::SimTime next_round = 0;
  double wall_s = 0.0;
  std::vector<Block> blocks;        ///< one per grid period
  std::vector<std::size_t> drains;  ///< snapshots per non-empty drain
};

/// Closed loop over rounds from `first_round`: generate the round for the
/// whole fleet, announce it, drain, repeat. Stops on a grid-period
/// boundary once `budget_s` is spent, or after exactly `fixed_rounds`
/// when that is > 0. With a tracer, each round's generate, announce and
/// drain carry a span, and 1 in kSample pushes inside the announce one.
RoundsOutcome run_rounds(const Fleet& fleet, Server& server,
                         std::vector<metrics::Snapshot>& buf,
                         metrics::SimTime first_round, double budget_s,
                         metrics::SimTime fixed_rounds, Tracer* tracer,
                         PushProbe* probe) {
  RoundsOutcome out;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(budget_s * 1e9);
  std::int64_t block_start = start;
  std::uint64_t announce = 0;
  for (metrics::SimTime r = 0;; ++r) {
    if (r % kGrid == 0) {
      const std::int64_t t = now_ns();
      if (r > 0) {
        out.blocks.push_back({seconds_between(block_start, t),
                              static_cast<double>(fleet.size())});
        block_start = t;
      }
      if (fixed_rounds > 0 ? r >= fixed_rounds : (r > 0 && t >= end)) {
        out.next_round = first_round + r;
        break;
      }
    }
    const metrics::SimTime round = first_round + r;
    {
      Span span(tracer, "loadgen.generate");
      for (std::size_t n = 0; n < fleet.size(); ++n) fleet.fill(n, round, buf[n]);
    }
    {
      Span span(tracer, "monitor.bus.announce");
      for (std::size_t pos = 0; pos < fleet.size(); ++pos, ++announce) {
        if (probe != nullptr) probe->sampled = announce % kSample == 0;
        server.bus.announce(buf[fleet.order(pos)]);
      }
    }
    std::size_t drained = 0;
    {
      Span span(tracer, "engine.fleet.drain");
      drained = server.stream.drain();
    }
    if (drained > 0) out.drains.push_back(drained);
  }
  out.wall_s = seconds_between(start, now_ns());
  return out;
}

struct OpenOutcome {
  metrics::SimTime next_round = 0;
  std::uint64_t announces = 0;
  std::vector<double> fresh_ms;
  std::vector<double> late_ms;
  std::size_t drain_calls = 0;
  std::size_t drained = 0;
};

/// Open loop at kOfferedAnnouncesPerS from `first_round` for about
/// `budget_s`, ending on a grid period. The drainer thread drains every
/// kDrainPeriodNs; freshness is charged from each on-grid announce's due
/// time to the return of the drain that ingested it.
OpenOutcome open_loop(const Fleet& fleet, Server& server,
                      std::vector<metrics::Snapshot>& buf,
                      metrics::SimTime first_round, double budget_s,
                      Tracer* tracer) {
  OpenOutcome out;
  const std::size_t n_nodes = fleet.size();
  std::atomic<bool> generating{true};
  std::vector<BatchReturn> returns;
  std::thread drainer([&] {
    std::int64_t next = now_ns();
    for (;;) {
      const bool last = !generating.load(std::memory_order_acquire);
      std::size_t drained = 0;
      {
        Span span(tracer, "engine.fleet.drain");
        drained = server.stream.drain();
      }
      const std::int64_t done = now_ns();
      ++out.drain_calls;
      if (drained > 0) returns.push_back({done, drained});
      out.drained += drained;
      if (last && server.stream.backlog() == 0) break;
      next += kDrainPeriodNs;
      if (next < done) next = done;
      wait_until_ns(next);
    }
  });

  const Schedule schedule(now_ns() + 1'000'000, kOfferedAnnouncesPerS);
  const std::uint64_t per_period = static_cast<std::uint64_t>(kGrid) * n_nodes;
  const std::uint64_t planned =
      std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(budget_s * kOfferedAnnouncesPerS) /
                 per_period) *
      per_period;
  std::vector<std::int64_t> on_grid_due;  // in push order
  on_grid_due.reserve(planned / kGrid + n_nodes);
  out.late_ms.reserve(planned);
  for (std::uint64_t a = 0; a < planned; ++a) {
    const std::int64_t due = schedule.due_ns(a);
    wait_until_ns(due);
    out.late_ms.push_back(lateness_ms(due, now_ns()));
    const std::size_t n = fleet.order(a % n_nodes);
    const metrics::SimTime round =
        first_round + static_cast<metrics::SimTime>(a / n_nodes);
    if (fleet.on_grid(n, round)) on_grid_due.push_back(due);
    fleet.fill(n, round, buf[n]);
    server.bus.announce(buf[n]);
  }
  generating.store(false, std::memory_order_release);
  drainer.join();
  out.announces = planned;
  out.next_round = first_round + static_cast<metrics::SimTime>(planned / n_nodes);
  out.fresh_ms = batch_latencies_ms(
      returns, [&](std::uint64_t k) { return on_grid_due.at(k); });
  return out;
}

/// Per-node announce buffers (addresses set once).
std::vector<metrics::Snapshot> node_buffers(const Fleet& fleet) {
  std::vector<metrics::Snapshot> out;
  out.reserve(fleet.size());
  for (std::size_t n = 0; n < fleet.size(); ++n) out.push_back(fleet.blank(n));
  return out;
}

struct Setup {
  std::vector<core::RecordedRun> runs;
  std::unique_ptr<core::ClassificationPipeline> pipeline;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Server> server;
  std::string model_path;
  /// Rounds the set-up warm-up announced (every node seen once).
  metrics::SimTime warm_rounds = 0;
  std::vector<std::size_t> warm_drains;
};

/// Brings a server up to serving: one grid period through the bus so
/// every node has been registered and every ring and batch has grown.
RoundsOutcome warm_up(const Fleet& fleet, Server& server) {
  std::vector<metrics::Snapshot> buf = node_buffers(fleet);
  return run_rounds(fleet, server, buf, 0, 0.0, kGrid, nullptr, nullptr);
}

void set_up(const RunArgs& args, Setup& s) {
  s.server.reset();
  s.fleet.reset();
  s.runs = core::record_canonical_runs();
  core::TrainingSetup training;
  training.seed = sub_seed(args.seed, 7);
  s.pipeline = std::make_unique<core::ClassificationPipeline>(
      core::make_trained_pipeline({}, training));
  s.model_path = args.workdir + "/stream_model.txt";
  core::save_pipeline_file(*s.pipeline, s.model_path);
  s.fleet = std::make_unique<Fleet>(s.runs, args.seed, kNodes, 10);
  s.server = std::make_unique<Server>(*s.pipeline);
  s.server->stream.attach(s.server->bus);
  const RoundsOutcome warm = warm_up(*s.fleet, *s.server);
  s.warm_rounds = warm.next_round;
  s.warm_drains = warm.drains;
}

/// The observe() reference: a fresh OnlineClassifier fed every announce
/// of rounds [0, rounds) in announce order.
std::string observe_reference(const Setup& s, metrics::SimTime rounds) {
  core::OnlineClassifier reference(*s.pipeline);
  std::vector<metrics::Snapshot> buf = node_buffers(*s.fleet);
  for (metrics::SimTime round = 0; round < rounds; ++round)
    for (std::size_t pos = 0; pos < s.fleet->size(); ++pos) {
      const std::size_t n = s.fleet->order(pos);
      s.fleet->fill(n, round, buf[n]);
      reference.observe(buf[n]);
    }
  return serving::composition_text(reference);
}

double accuracy(const Fleet& fleet, const core::OnlineClassifier& online) {
  std::size_t right = 0;
  for (std::size_t n = 0; n < fleet.size(); ++n) {
    const auto cls = online.current_class(fleet.ip(n));
    if (cls && *cls == fleet.expected(n)) ++right;
  }
  return static_cast<double>(right) / static_cast<double>(fleet.size());
}

/// Replays the on-grid snapshots in push order through the drain's
/// public stage calls, batch by batch as `drains` records:
/// begin_snapshot_batch + classify_snapshot_into, then
/// OnlineClassifier::ingest. Batches before `timed_from` (the warm-up)
/// run untimed. Returns the rendered online state; `busy_s` gets the
/// timed classify + ingest wall time.
std::string replay_stages(const Fleet& fleet,
                          const core::ClassificationPipeline& pl,
                          const std::vector<std::size_t>& drains,
                          std::size_t timed_from, bool with_health,
                          Tracer* tracer, double& busy_s) {
  core::OnlineClassifier online(pl);
  obs::ModelHealth health(core::make_health_options());
  if (with_health) online.attach_health(&health);
  core::SnapshotBatch batch;
  auto scratch = pl.acquire_scratch();
  std::vector<metrics::Snapshot> snaps;
  // Walks announces in order, yielding on-grid ones.
  metrics::SimTime round = 0;
  std::size_t pos = 0;
  const auto next_on_grid = [&](metrics::Snapshot& out) {
    for (;;) {
      const std::size_t n = fleet.order(pos);
      const metrics::SimTime r = round;
      if (++pos == fleet.size()) {
        pos = 0;
        ++round;
      }
      if (fleet.on_grid(n, r)) {
        out.node_ip = fleet.ip(n);
        fleet.fill(n, r, out);
        return;
      }
    }
  };
  busy_s = 0.0;
  for (std::size_t d = 0; d < drains.size(); ++d) {
    const std::size_t count = drains[d];
    snaps.resize(std::max(snaps.size(), count));
    for (std::size_t i = 0; i < count; ++i) next_on_grid(snaps[i]);
    Tracer* t = d >= timed_from ? tracer : nullptr;
    const std::int64_t t0 = now_ns();
    {
      Span span(t, with_health ? "core.classify_batch"
                               : "core.classify_batch.bare");
      pl.begin_snapshot_batch(batch, count, with_health);
      for (std::size_t i = 0; i < count; ++i)
        pl.classify_snapshot_into(snaps[i], batch, i, *scratch);
    }
    {
      Span span(t, with_health ? "core.online.ingest"
                               : "core.online.ingest.bare");
      for (std::size_t i = 0; i < count; ++i) {
        if (with_health)
          online.ingest(snaps[i], batch.detail(i));
        else
          online.ingest(snaps[i], batch.label(i));
      }
    }
    if (d >= timed_from) busy_s += seconds_between(t0, now_ns());
  }
  return serving::composition_text(online);
}

void traced_run(const RunArgs& args, Setup& s, Result& result) {
  const Fleet& fleet = *s.fleet;
  // Untraced and traced chunks alternate on two identically warmed
  // servers fed the same rounds; the first untraced chunk fixes the
  // chunk length. Each pair yields a residual and an overhead ratio.
  std::vector<metrics::Snapshot> buf = node_buffers(fleet);
  Server traced_server(*s.pipeline);
  PushProbe probe{&traced_server.stream, nullptr};
  traced_server.bus.subscribe(
      [&probe](const metrics::Snapshot& snap) { probe(snap); });
  const RoundsOutcome warm = warm_up(fleet, traced_server);
  const std::uint64_t warm_accepted = probe.accepted;
  const std::uint64_t warm_filtered = probe.filtered;
  std::vector<std::size_t> drains = warm.drains;
  std::vector<double> residuals, overheads;
  std::map<std::string, double> busy;
  const auto self = [](const std::map<std::string, LayerTime>& m,
                       const char* name) {
    return m.count(name) ? m.at(name).self_s : 0.0;
  };
  metrics::SimTime next_round = s.warm_rounds, chunk_rounds = 0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    const RoundsOutcome plain = run_rounds(
        fleet, *s.server, buf, next_round,
        kTracedShare * args.seconds / kTracePairs, chunk_rounds, nullptr, nullptr);
    chunk_rounds = plain.next_round - next_round;
    Tracer chunk;
    probe.tracer = &chunk;
    const RoundsOutcome traced = run_rounds(fleet, traced_server, buf,
                                            next_round, 0.0, chunk_rounds,
                                            &chunk, &probe);
    next_round = traced.next_round;
    drains.insert(drains.end(), traced.drains.begin(), traced.drains.end());
    const auto lt = chunk.layer_times();
    // Pushes are sampled, so the announce span's self time still holds
    // the unsampled ones: the bus's own time is what remains after the
    // weighted push estimate.
    const double push_s = self(lt, "engine.fleet.push");
    const double bus_s = std::max(
        0.0, self(lt, "monitor.bus.announce") -
                 push_s * static_cast<double>(kSample - 1) /
                     static_cast<double>(kSample));
    const double generate_s = self(lt, "loadgen.generate");
    const double drain_s = self(lt, "engine.fleet.drain");
    busy["push"] += push_s;
    busy["bus"] += bus_s;
    busy["generate"] += generate_s;
    busy["drain"] += drain_s;
    residuals.push_back(
        residual_ratio(plain.wall_s, generate_s + bus_s + push_s + drain_s));
    overheads.push_back(ratio(traced.wall_s, plain.wall_s));
    if (pair + 1 == kTracePairs &&
        !chunk.write_chrome_trace(args.workdir + "/trace.json"))
      std::fprintf(stderr, "perfbench: cannot write chrome trace\n");
  }
  probe.tracer = nullptr;
  const std::uint64_t accepted = probe.accepted - warm_accepted;
  const std::uint64_t filtered = probe.filtered - warm_filtered;
  const double residual = median(residuals);

  // The drain's stage calls replayed on the traced server's batches, with
  // and without the health aggregator.
  double health_busy = 0.0, bare_busy = 0.0;
  Tracer stage_tracer;
  const std::string staged =
      replay_stages(fleet, *s.pipeline, drains, warm.drains.size(), true,
                    &stage_tracer, health_busy);
  replay_stages(fleet, *s.pipeline, drains, warm.drains.size(), false,
                &stage_tracer, bare_busy);
  result.gate(
      "stream.stage_replay_identical",
      staged == serving::composition_text(traced_server.stream.online()));
  const auto st = stage_tracer.layer_times();

  // Open loop with drain spans: the drain-side layers.
  Tracer open_tracer;
  const OpenOutcome open =
      open_loop(fleet, traced_server, buf, next_round,
                kTracedShare * args.seconds, &open_tracer);
  const auto ot = open_tracer.layer_times();

  engine::FleetStream& stream = traced_server.stream;
  result.attempted = accepted + filtered + open.announces;
  result.failed = stream.dropped();
  result.gate("stream.no_dropped_pushes", result.failed == 0);
  result.set("monitor.bus.busy_s", busy["bus"]);
  result.set("monitor.bus.announces", static_cast<double>(accepted + filtered));
  result.set("engine.fleet.push.busy_s", busy["push"]);
  result.set("engine.fleet.push.accepted", static_cast<double>(accepted));
  result.set("engine.fleet.push.filtered", static_cast<double>(filtered));
  result.set("core.classify_batch.busy_s", self(st, "core.classify_batch"));
  result.set("core.online.ingest.busy_s", self(st, "core.online.ingest"));
  result.set("obs.health.overhead_ratio", ratio(health_busy, bare_busy));
  result.set("engine.fleet.drain.busy_s", self(ot, "engine.fleet.drain"));
  result.set("engine.fleet.drain.calls", static_cast<double>(open.drain_calls));
  result.set("engine.fleet.batch_mean",
             static_cast<double>(open.drained) /
                 static_cast<double>(std::max<std::size_t>(open.drain_calls, 1)));
  result.set("engine.fleet.backlog_peak",
             static_cast<double>(stream.backlog_peak()));
  result.set("engine.fleet.ring_grows", static_cast<double>(stream.ring_grows()));
  result.set("engine.fleet.dropped", static_cast<double>(stream.dropped()));
  result.set("stream.residual_ratio", std::abs(residual));
  result.set("loadgen.late_p99_ms", summarize(open.late_ms).p99);
  result.set("trace.overhead_ratio", median(overheads));
  result.details["stream.residual_signed"] = residual;
  result.details["traced.rounds"] =
      static_cast<double>(chunk_rounds * kTracePairs);
  result.details["traced.saturating_drain_busy_s"] = busy["drain"];
  result.details["traced.generate_busy_s"] = busy["generate"];
  result.details["bare.classify_batch_busy_s"] =
      self(st, "core.classify_batch.bare");
  result.details["bare.online_ingest_busy_s"] =
      self(st, "core.online.ingest.bare");

  // The durable path's layers (wire, link, ingest, WAL, checkpoint,
  // recovery) behind a worker subprocess.
  measure_durable_path(args, result);
}

}  // namespace

Result run_stream_ingest(const RunArgs& args) {
  Result result;
  Setup s;
  const double setup_s =
      median_seconds(kSetupReps, [&](int) { set_up(args, s); });
  result.details["nodes"] = static_cast<double>(kNodes);
  result.details["offered_announces_per_s"] = kOfferedAnnouncesPerS;
  result.details["drain_period_ms"] = static_cast<double>(kDrainPeriodNs) * 1e-6;
  if (args.trace) {
    traced_run(args, s, result);
    return result;
  }

  // The saturating phase runs in kRecoverReps slices with a timed restart
  // after each, so the restarts' median samples the whole phase. The
  // first slice's end state is checkpointed; a restart loads the model
  // and recovers that checkpoint, as a restarted server would.
  engine::FleetStream& stream = s.server->stream;
  const std::string state_dir = args.workdir + "/stream_state";
  std::string checkpointed;
  std::vector<double> recover_s;
  bool recovered_identical = true;
  std::vector<metrics::Snapshot> buf = node_buffers(*s.fleet);
  std::vector<Block> blocks;
  metrics::SimTime next_round = s.warm_rounds;
  for (int slice = 0; slice < kRecoverReps; ++slice) {
    const RoundsOutcome part = run_rounds(
        *s.fleet, *s.server, buf, next_round,
        kSaturatingShare * args.seconds / kRecoverReps, 0, nullptr, nullptr);
    next_round = part.next_round;
    blocks.insert(blocks.end(), part.blocks.begin(), part.blocks.end());
    if (slice == 0) {
      std::filesystem::create_directories(state_dir);
      persist::CheckpointData checkpoint;
      checkpoint.options = stream.online().options();
      checkpoint.online = stream.online().export_state();
      persist::write_checkpoint(state_dir + "/checkpoints", checkpoint);
      checkpointed = serving::composition_text(stream.online());
    }
    const std::int64_t t0 = now_ns();
    const core::ClassificationPipeline pipeline =
        core::load_pipeline_file(s.model_path);
    core::OnlineClassifier online(pipeline);
    obs::ModelHealth health(core::make_health_options());
    online.attach_health(&health);
    persist::recover(state_dir, pipeline, online);
    recover_s.push_back(seconds_between(t0, now_ns()));
    if (serving::composition_text(online) != checkpointed)
      recovered_identical = false;
  }
  result.gate("stream.recovered_state_identical", recovered_identical);
  const OpenOutcome open = open_loop(*s.fleet, *s.server, buf, next_round,
                                     kOpenShare * args.seconds, nullptr);
  const double rss = peak_rss_mib();
  const std::uint64_t announces =
      static_cast<std::uint64_t>(open.next_round) * kNodes;

  // Gates: nothing dropped, and the served state equals observe() fed the
  // same announces.
  result.gate("stream.no_dropped_pushes", stream.dropped() == 0);
  result.gate("stream.composition_equals_observe",
              serving::composition_text(stream.online()) ==
                  observe_reference(s, open.next_round));

  const LatencySummary fresh = summarize(open.fresh_ms);
  const LatencySummary late = summarize(open.late_ms);
  result.attempted = announces;
  result.failed = stream.dropped();
  result.set("setup_s", setup_s);
  result.set("throughput_per_s", median_rate(blocks));
  result.set("latency_p50_ms", fresh.p50);
  result.set("latency_p90_ms", fresh.p90);
  result.set("recover_s", median(recover_s));
  result.set("peak_rss_mb", rss);
  result.set("success_ratio", 1.0 - static_cast<double>(result.failed) /
                                        static_cast<double>(announces));
  result.set("class_accuracy", accuracy(*s.fleet, stream.online()));
  result.details["ingest_snaps_per_s"] = median_rate(blocks);
  result.details["saturating.rounds"] =
      static_cast<double>(next_round - s.warm_rounds);
  result.details["saturating.blocks"] = static_cast<double>(blocks.size());
  result.details["open.rounds"] = static_cast<double>(open.next_round - next_round);
  result.details["fresh.samples"] = static_cast<double>(fresh.count);
  result.details["fresh.p99_ms"] = fresh.p99;
  result.details["fresh.p99_reportable"] = fresh.p99_reportable ? 1.0 : 0.0;
  result.details["fresh.tail_q"] = fresh.tail_q;
  result.details["fresh.tail_ms"] = fresh.tail;
  result.details["loadgen.late_p99_ms"] = late.p99;
  result.details["loadgen.late_samples"] = static_cast<double>(late.count);
  result.details["open.drain_calls"] = static_cast<double>(open.drain_calls);
  return result;
}

}  // namespace perfbench
