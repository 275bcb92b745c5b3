// batch_classify: closed-loop offline classification of many generated
// pools through core::ClassificationPipeline::classify on a fixed-width
// execution context, against a model trained on many training captures
// (a k-NN reference set well past one core's L2). No bus, ring, socket or
// disk on the measured path: k-NN, PCA and the thread pool do the work.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>

#include "core/serialize.hpp"
#include "engine/context.hpp"
#include "gen.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Training captures behind the model (~431 reference points each).
constexpr std::size_t kCaptures = 224;
/// Pipeline execution width (worker threads; the caller also runs
/// tasks). Fixed so figures do not depend on the host's core count.
constexpr std::size_t kParallelism = 2;
/// Pools classified per closed-loop round: two per running thread.
constexpr std::size_t kRoundPools = 2 * (kParallelism + 1);
/// Distinct generated pools, cycled by the closed loop.
constexpr std::size_t kPools = 128;
constexpr std::size_t kPoolMinLen = 16;
constexpr std::size_t kPoolMaxLen = 32;
constexpr int kSetupReps = 3;
constexpr std::size_t kRecoverReps = 9;
constexpr int kTraceReps = 3;
/// A throughput block closes after this long.
constexpr double kBlockSeconds = 0.1;

/// FNV-1a-64 over the bytes of a classification result: compares two
/// results bit for bit.
class Digest {
 public:
  template <typename T>
  void value(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t get() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

core::PipelineOptions pipeline_options() {
  core::PipelineOptions options;
  options.parallelism = kParallelism;
  return options;
}

std::uint64_t digest_of(const core::ClassificationResult& r) {
  Digest d;
  for (const auto c : r.class_vector) d.value(c);
  for (const double v : r.confidences) d.value(v);
  for (const double v : r.novelty) d.value(v);
  for (const double v : r.composition.fractions()) d.value(v);
  d.value(r.application_class);
  for (const double v : r.projected.data()) d.value(v);
  return d.get();
}

struct Setup {
  core::ClassificationPipeline pipeline{pipeline_options()};
  std::vector<GeneratedPool> pools;
  std::string model_path;
};

void set_up(const RunArgs& args, Setup& out) {
  // Drop the previous repetition's model first, so the peak RSS holds one.
  out = Setup{};
  const std::vector<core::RecordedRun> runs = core::record_canonical_runs();
  core::ClassificationPipeline pipeline(pipeline_options());
  pipeline.train(training_captures(args.seed, kCaptures));
  out.pools = make_pools(runs, args.seed, kPools, kPoolMinLen, kPoolMaxLen);
  out.model_path = args.workdir + "/batch_model.txt";
  core::save_pipeline_file(pipeline, out.model_path);
  out.pipeline = std::move(pipeline);
}

/// The stage-by-stage form of ClassificationPipeline::classify(pool),
/// built from the pipeline's public stage objects so each stage call can
/// carry its own span. Pools here are below one shard, so the pipeline's
/// sharded loops run as the single range used below.
core::ClassificationResult classify_by_stage(
    const core::ClassificationPipeline& pl, const metrics::DataPool& pool,
    Tracer* tracer) {
  core::ClassificationResult result;
  result.novelty_threshold = pl.novelty_threshold();
  linalg::Matrix normalized;
  {
    Span span(tracer, "core.preprocess");
    normalized = pl.preprocessor().transform(pool);
  }
  const std::size_t m = normalized.rows();
  {
    Span span(tracer, "core.pca");
    result.projected = linalg::Matrix(m, pl.pca().components());
    pl.pca().transform_rows(normalized, 0, m, result.projected);
  }
  const core::QueryOptions options{.vote_shares = true,
                                   .neighbors = false,
                                   .novelty = pl.novelty_threshold() > 0.0};
  core::QueryResult queries = pl.knn().make_result(m, options);
  {
    Span span(tracer, "core.knn");
    auto scratch = pl.acquire_scratch();
    pl.knn().query_rows(result.projected, 0, m, options, queries,
                        scratch->kernel);
  }
  {
    Span span(tracer, "core.vote");
    result.class_vector = std::move(queries.labels);
    result.confidences = std::move(queries.vote_shares);
    result.novelty = std::move(queries.novelty);
    result.composition = core::ClassComposition(result.class_vector);
    result.application_class = result.composition.dominant();
  }
  return result;
}

/// Classifies every distinct pool once across the context; returns the
/// wall time and fills per-pool digests and call times.
double classify_all(const core::ClassificationPipeline& pl,
                    const std::vector<GeneratedPool>& pools,
                    std::vector<std::uint64_t>& digests,
                    std::vector<double>& call_s) {
  digests.assign(pools.size(), 0);
  call_s.assign(pools.size(), 0.0);
  const std::int64_t t0 = now_ns();
  pl.context()->for_each(pools.size(), [&](std::size_t i) {
    const std::int64_t c0 = now_ns();
    const core::ClassificationResult r = pl.classify(pools[i].pool);
    call_s[i] = seconds_between(c0, now_ns());
    digests[i] = digest_of(r);
  });
  return seconds_between(t0, now_ns());
}

void traced_run(const RunArgs& args, Setup& s, Result& result) {
  const core::ClassificationPipeline& pl = s.pipeline;
  std::vector<std::uint64_t> digests;
  std::vector<double> call_s;
  std::vector<double> parallel_wall, untraced_full, traced_layers,
      traced_full;
  std::map<std::string, LayerTime> layers;
  std::size_t queries = 0;
  bool stage_identical = true;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    // Untraced full path: classify(pool) per pool.
    parallel_wall.push_back(classify_all(pl, s.pools, digests, call_s));
    double full = 0.0;
    for (const double c : call_s) full += c;
    untraced_full.push_back(full);

    // Traced: the same pools stage by stage, each stage in a span.
    Tracer rep_tracer;
    std::vector<double> root_s(s.pools.size(), 0.0);
    std::atomic<bool> identical{true};
    pl.context()->for_each(s.pools.size(), [&](std::size_t i) {
      const std::int64_t c0 = now_ns();
      core::ClassificationResult r;
      {
        Span root(&rep_tracer, "core.classify_pool");
        r = classify_by_stage(pl, s.pools[i].pool, &rep_tracer);
      }
      root_s[i] = seconds_between(c0, now_ns());
      if (digest_of(r) != digests[i]) identical = false;
    });
    stage_identical = stage_identical && identical.load();
    const auto lt = rep_tracer.layer_times();
    double layer_sum = 0.0;
    for (const char* name :
         {"core.preprocess", "core.pca", "core.knn", "core.vote"})
      if (lt.count(name)) layer_sum += lt.at(name).self_s;
    traced_layers.push_back(layer_sum);
    double traced = 0.0;
    for (const double r : root_s) traced += r;
    traced_full.push_back(traced);
    if (rep == kTraceReps - 1) {
      layers = lt;
      for (const auto& p : s.pools) queries += p.pool.size();
      // The last repetition's spans go to the Chrome trace.
      if (!rep_tracer.write_chrome_trace(args.workdir + "/trace.json"))
        std::fprintf(stderr, "perfbench: cannot write chrome trace\n");
      result.details["trace.spans"] =
          static_cast<double>(rep_tracer.span_count());
    }
  }
  result.gate("batch.stage_path_bit_identical", stage_identical);

  // Thread pool: the same pools serially on a width-1 copy.
  core::ClassificationPipeline serial = pl;
  serial.set_parallelism(1);
  std::vector<std::uint64_t> serial_digests;
  std::vector<double> serial_calls;
  std::vector<double> serial_wall;
  for (int rep = 0; rep < kTraceReps; ++rep)
    serial_wall.push_back(
        classify_all(serial, s.pools, serial_digests, serial_calls));
  result.gate("batch.parallel_equals_serial", serial_digests == digests);

  const auto self = [&](const char* name) {
    return layers.count(name) ? layers.at(name).self_s : 0.0;
  };
  result.set("core.preprocess.busy_s", self("core.preprocess"));
  result.set("core.pca.busy_s", self("core.pca"));
  result.set("core.knn.busy_s", self("core.knn"));
  result.set("core.vote.busy_s", self("core.vote"));
  result.set("core.knn.queries", static_cast<double>(queries));
  result.set("core.knn.ref_points",
             static_cast<double>(pl.knn().training_size()));
  result.set("core.knn.ns_per_query",
             self("core.knn") * 1e9 / static_cast<double>(queries));
  result.set("engine.pool.serial_s", median(serial_wall));
  result.set("engine.pool.speedup",
             ratio(median(serial_wall), median(parallel_wall)));
  const double residual =
      residual_ratio(median(untraced_full), median(traced_layers));
  result.set("batch.residual_ratio", std::abs(residual));
  result.details["batch.residual_signed"] = residual;
  result.set("trace.overhead_ratio",
             ratio(median(traced_full), median(untraced_full)));
  result.set("loadgen.late_p99_ms", 0.0);
  // Each repetition classifies every pool three ways: untraced, stage by
  // stage, and at width 1.
  result.attempted = 3 * kTraceReps * s.pools.size();
  result.details["pools"] = static_cast<double>(s.pools.size());
}

}  // namespace

Result run_batch_classify(const RunArgs& args) {
  Result result;
  Setup s;
  result.details["setup.reps"] = kSetupReps;
  const double setup_s =
      median_seconds(kSetupReps, [&](int) { set_up(args, s); });
  const core::ClassificationPipeline& pl = s.pipeline;
  result.details["parallelism"] = static_cast<double>(kParallelism);
  result.details["ref_points"] = static_cast<double>(pl.knn().training_size());

  if (args.trace) {
    traced_run(args, s, result);
    return result;
  }

  // Reference digests: each distinct pool classified once (warm-up too).
  std::vector<std::uint64_t> reference;
  std::vector<double> unused;
  classify_all(pl, s.pools, reference, unused);

  // Closed loop: rounds of kRoundPools pools across the context until
  // the time budget is spent; each call timed on its own.
  std::vector<double> latency_ms;
  std::vector<Block> blocks;
  std::atomic<std::uint64_t> failures{0};
  std::atomic<bool> stable{true};
  std::uint64_t attempted = 0;
  std::size_t cursor = 0;
  std::vector<double> round_ms(kRoundPools);
  std::vector<std::size_t> round_snaps(kRoundPools);
  // Cold restarts of the offline classifier (load the saved model and
  // classify the first pool, what `appclass_cli classify` does) are
  // spread over the closed loop, so their median samples the whole run
  // rather than one stretch of it; their time is left out of the blocks.
  std::vector<double> recover_s;
  bool reload_identical = true;
  const auto cold_restart = [&] {
    const std::int64_t t0 = now_ns();
    core::ClassificationPipeline loaded = core::load_pipeline_file(s.model_path);
    loaded.set_parallelism(kParallelism);
    const core::ClassificationResult r = loaded.classify(s.pools[0].pool);
    recover_s.push_back(seconds_between(t0, now_ns()));
    if (digest_of(r) != reference[0]) reload_identical = false;
  };
  const double restart_every = args.seconds / kRecoverReps;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t block_start = start;
  double block_work = 0.0;
  while (now_ns() < end) {
    pl.context()->for_each(kRoundPools, [&](std::size_t j) {
      const std::size_t i = (cursor + j) % s.pools.size();
      const std::int64_t c0 = now_ns();
      try {
        const core::ClassificationResult r = pl.classify(s.pools[i].pool);
        round_ms[j] = static_cast<double>(now_ns() - c0) * 1e-6;
        round_snaps[j] = r.class_vector.size();
        if (digest_of(r) != reference[i]) stable = false;
      } catch (const std::exception& e) {
        failures.fetch_add(1);
        round_ms[j] = -1.0;
        round_snaps[j] = 0;
      }
    });
    cursor = (cursor + kRoundPools) % s.pools.size();
    attempted += kRoundPools;
    for (std::size_t j = 0; j < kRoundPools; ++j) {
      if (round_ms[j] >= 0.0) latency_ms.push_back(round_ms[j]);
      block_work += static_cast<double>(round_snaps[j]);
    }
    const std::int64_t t = now_ns();
    if (seconds_between(block_start, t) >= kBlockSeconds) {
      blocks.push_back({seconds_between(block_start, t), block_work});
      block_start = t;
      block_work = 0.0;
    }
    if (recover_s.size() < kRecoverReps &&
        seconds_between(start, t) >=
            (static_cast<double>(recover_s.size()) + 0.5) * restart_every) {
      cold_restart();
      block_start = now_ns();
      block_work = 0.0;
    }
  }
  while (recover_s.size() < kRecoverReps) cold_restart();
  result.gate("batch.reloaded_model_identical", reload_identical);
  const double rss = peak_rss_mib();

  // Gates: every repeat matched its first classification, and the
  // parallel results equal a width-1 classify of the same inputs.
  result.gate("batch.repeat_results_stable", stable.load());
  core::ClassificationPipeline serial = pl;
  serial.set_parallelism(1);
  std::vector<std::uint64_t> serial_digests;
  classify_all(serial, s.pools, serial_digests, unused);
  result.gate("batch.parallel_equals_serial", serial_digests == reference);

  std::size_t correct_pools = 0;
  for (std::size_t i = 0; i < s.pools.size(); ++i) {
    const core::ClassificationResult r = serial.classify(s.pools[i].pool);
    if (r.application_class == s.pools[i].expected) ++correct_pools;
  }

  const LatencySummary lat = summarize(latency_ms);
  result.attempted = attempted;
  result.failed = failures.load();
  result.set("setup_s", setup_s);
  result.set("throughput_per_s", median_rate(blocks));
  result.set("latency_p50_ms", lat.p50);
  result.set("latency_p90_ms", lat.p90);
  result.set("recover_s", median(recover_s));
  result.set("peak_rss_mb", rss);
  result.set("success_ratio",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(std::max<std::uint64_t>(attempted, 1)));
  result.set("class_accuracy", static_cast<double>(correct_pools) /
                                   static_cast<double>(s.pools.size()));
  result.details["latency.samples"] = static_cast<double>(lat.count);
  result.details["latency.p99_ms"] = lat.p99;
  result.details["latency.p99_reportable"] = lat.p99_reportable ? 1.0 : 0.0;
  result.details["latency.tail_q"] = lat.tail_q;
  result.details["latency.tail_ms"] = lat.tail;
  result.details["throughput.blocks"] = static_cast<double>(blocks.size());
  result.details["classify_snaps_per_s"] = median_rate(blocks);
  result.details["pools_classified"] = static_cast<double>(attempted);
  return result;
}

}  // namespace perfbench
