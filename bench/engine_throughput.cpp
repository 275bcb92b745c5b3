// Engine throughput: snapshots/sec of the seed's scalar k-NN path vs the
// blocked SoA kernel vs the threaded pipeline, plus the kernel's index
// build time at the batch workload's model size, written as
// BENCH_engine.json for CI trend tracking (docs/performance.md explains
// the fields).
//
//   engine_throughput [--quick] [--out=BENCH_engine.json]
//
// --quick shrinks the workloads ~10x for smoke runs. Thread speedups are
// measured on whatever cores the host offers — on a single-core
// container the threaded rows legitimately show ~1x.
#include <cstddef>
#include <functional>
#include <iterator>
#include <random>
#include <vector>

#include "common/assert.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "engine/knn_kernel.hpp"
#include "harness.hpp"
#include "linalg/matrix.hpp"
#include "obs/trace.hpp"

namespace {

using namespace appclass;

/// Synthetic PCA-space training set: five tight clusters like Figure 3,
/// big enough that the distance loop dominates.
linalg::Matrix cluster_points(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.35);
  linalg::Matrix points(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = static_cast<double>(i % 5) * 3.0;
    const double cy = static_cast<double>((i % 5) % 2) * 3.0;
    points(i, 0) = cx + noise(rng);
    points(i, 1) = cy + noise(rng);
  }
  return points;
}

std::vector<core::ApplicationClass> cluster_labels(std::size_t n) {
  std::vector<core::ApplicationClass> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<core::ApplicationClass>(i % 5);
  return labels;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(
      argc, argv, "engine_throughput", "BENCH_engine.json");
  const std::size_t n_train = args.quick ? 1024 : 4096;
  const std::size_t n_query = args.quick ? 4000 : 40000;
  const std::size_t pool_reps = args.quick ? 4 : 40;

  std::vector<bench::Fields> rows;
  const auto add_row = [&rows](const char* mode, std::size_t threads,
                               std::size_t snapshots,
                               const std::vector<double>& seconds) {
    rows.push_back(bench::Fields()
                       .text("mode", mode)
                       .count("threads", threads)
                       .count("snapshots", snapshots)
                       .timing(seconds, "snapshots_per_sec",
                               static_cast<double>(snapshots)));
  };

  // --- Kernel microbenchmark: scalar reference vs blocked SoA, same
  // training set, same queries, single thread.
  double kernel_speedup = 0.0;
  {
    const linalg::Matrix train = cluster_points(n_train, 7);
    const auto labels = cluster_labels(n_train);
    const linalg::Matrix queries = cluster_points(n_query, 8);
    engine::BlockedKnnIndex index;
    index.build(train, labels, 3);

    std::size_t scalar_checksum = 0;
    std::size_t blocked_checksum = 0;
    const auto seconds = bench::time_interleaved({
        [&] {
          for (std::size_t r = 0; r < queries.rows(); ++r) {
            const auto hits =
                engine::reference_top_k(train, queries.row(r), 3);
            scalar_checksum +=
                index.vote(hits).label == core::ApplicationClass::kIdle;
          }
        },
        [&] {
          engine::BlockedKnnIndex::Scratch scratch;
          for (std::size_t r = 0; r < queries.rows(); ++r) {
            const auto hits = index.top_k(queries.row(r), scratch);
            blocked_checksum +=
                index.vote(hits).label == core::ApplicationClass::kIdle;
          }
        },
    });
    // Both paths must agree — a benchmark of wrong answers is worthless.
    APPCLASS_ENSURES(scalar_checksum == blocked_checksum);
    kernel_speedup = bench::paired_ratio(seconds[0], seconds[1]);
    add_row("knn_scalar", 1, n_query, seconds[0]);
    add_row("knn_blocked", 1, n_query, seconds[1]);
  }

  // --- Index build at the batch workload's model size (95,560 training
  // points): the k-d packing runs on every model load, so its cost lands
  // in start-up and recovery. Its "snapshots" field counts the points
  // packed.
  {
    constexpr std::size_t kBuildPoints = 95560;
    const linalg::Matrix train = cluster_points(kBuildPoints, 9);
    const auto labels = cluster_labels(kBuildPoints);
    const auto seconds = bench::time_interleaved({[&] {
      engine::BlockedKnnIndex index;
      index.build(train, labels, 3);
    }});
    add_row("knn_build", 1, kBuildPoints, seconds[0]);
  }

  // --- End-to-end pipeline: the five canonical runs concatenated into
  // one big pool, classified at parallelism 1 / 2 / 8, and serially
  // with span recording on. tracing_overhead lands in the JSON so CI
  // can flag a regression in the "tracing disabled costs nothing"
  // invariant. Every run must stay bit-identical to the serial one.
  double tracing_overhead = 0.0;
  {
    const auto training = core::collect_training_pools();
    metrics::DataPool big("10.0.0.99");
    for (std::size_t rep = 0; rep < pool_reps; ++rep)
      for (const auto& lp : training)
        for (const auto& snapshot : lp.pool.snapshots()) big.add(snapshot);

    core::PipelineOptions options;
    options.novelty_threshold = 2.5;
    core::ClassificationPipeline trained(options);
    trained.train(training);

    constexpr std::size_t kThreads[] = {1, 2, 8};
    std::vector<core::ClassificationPipeline> pipelines;
    std::vector<std::function<void()>> variants;
    std::vector<core::ClassificationResult> results(std::size(kThreads) + 1);
    for (std::size_t i = 0; i < std::size(kThreads); ++i) {
      pipelines.push_back(trained);
      pipelines.back().set_parallelism(kThreads[i]);
      variants.push_back([&, i] { results[i] = pipelines[i].classify(big); });
    }
    variants.push_back([&] {
      obs::set_tracing_enabled(true);
      results.back() = pipelines[0].classify(big);
      obs::set_tracing_enabled(false);
    });
    const auto seconds = bench::time_interleaved(variants);
    for (const auto& result : results) {
      APPCLASS_ENSURES(result.class_vector == results[0].class_vector);
      APPCLASS_ENSURES(result.confidences == results[0].confidences);
      APPCLASS_ENSURES(result.novelty == results[0].novelty);
    }
    for (std::size_t i = 0; i < std::size(kThreads); ++i)
      add_row("pipeline", kThreads[i], big.size(), seconds[i]);
    add_row("pipeline_traced", 1, big.size(), seconds.back());
    // Traced vs untraced serial run (>1.0 = tracing costs time).
    tracing_overhead = bench::paired_ratio(seconds.back(), seconds[0]);
  }

  return bench::write_report(args,
                             bench::Fields()
                                 .num("kernel_speedup", kernel_speedup)
                                 .num("tracing_overhead", tracing_overhead),
                             rows);
}
