// Thread-pool and execution-context semantics, plus the concurrency
// stress cases the TSan CI job runs: nested parallel_for, many small
// jobs racing through the work-stealing deques, and concurrent online
// streams pushing into a FleetStream while it drains.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "engine/context.hpp"
#include "engine/fleet.hpp"
#include "engine/thread_pool.hpp"
#include "monitor/bus.hpp"
#include "obs/metrics.hpp"

namespace appclass {
namespace {

TEST(EngineThreadPool, RunsEveryIndexExactlyOnce) {
  engine::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> seen(1000);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(EngineThreadPool, ZeroResolvesToHardwareConcurrency) {
  engine::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(EngineContext, SerialContextRunsInlineOnCallerThread) {
  const auto ctx = engine::ExecutionContext::serial();
  EXPECT_FALSE(ctx->pooled());
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  ctx->for_each(ran.size(),
                [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(EngineThreadPool, NestedParallelForDoesNotDeadlock) {
  engine::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(EngineThreadPool, PropagatesFirstException) {
  engine::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

TEST(EngineThreadPool, ManySmallJobsStress) {
  engine::ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round)
    pool.parallel_for(17, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  EXPECT_EQ(total.load(), 200L * (16 * 17 / 2));
}

TEST(EngineContext, ShardBoundariesDependOnlyOnCountAndGrain) {
  const auto serial = engine::ExecutionContext::serial();
  const auto pooled = engine::ExecutionContext::make(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                              std::size_t{256}, std::size_t{257},
                              std::size_t{1000}}) {
    std::vector<std::pair<std::size_t, std::size_t>> serial_shards;
    serial->for_shards(n, 256, [&](std::size_t b, std::size_t e, std::size_t) {
      serial_shards.emplace_back(b, e);
    });
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> pooled_shards;
    pooled->for_shards(n, 256, [&](std::size_t b, std::size_t e, std::size_t) {
      const std::lock_guard lock(mutex);
      pooled_shards.emplace_back(b, e);
    });
    std::sort(pooled_shards.begin(), pooled_shards.end());
    EXPECT_EQ(serial_shards, pooled_shards) << "n=" << n;
    // Shards must tile [0, n) without gap or overlap.
    std::size_t covered = 0;
    for (const auto& [b, e] : serial_shards) {
      EXPECT_EQ(b, covered);
      EXPECT_LT(b, e);
      covered = e;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(EngineContext, MakeZeroUsesHardwareConcurrency) {
  const auto ctx = engine::ExecutionContext::make(0);
  EXPECT_GE(ctx->parallelism(), 1u);
}

TEST(EngineThreadPool, CountsJobsAndJobWaits) {
  const auto jobs_before = [] {
    return obs::MetricsRegistry::global()
        .counter("appclass_engine_jobs_total")
        .value();
  };
  obs::Histogram& wait =
      obs::MetricsRegistry::global().histogram("appclass_engine_job_wait_seconds");

  engine::ThreadPool pool(2);
  const std::uint64_t jobs0 = jobs_before();
  const std::uint64_t waits0 = wait.count();
  pool.parallel_for(8, [](std::size_t) {});
  // One job per parallel_for; one wait observation per claimed task.
  EXPECT_EQ(jobs_before(), jobs0 + 1);
  EXPECT_EQ(wait.count(), waits0 + 8);
}

TEST(EngineThreadPool, WorkerQueueDepthGaugesDrainToZero) {
  engine::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(64, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
  // parallel_for returns only after every task has been claimed, so each
  // per-worker depth gauge (including the caller's deque) reads zero.
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  std::size_t seen = 0;
  for (const auto& g : snapshot.gauges) {
    if (g.name != "appclass_engine_worker_queue_depth") continue;
    EXPECT_EQ(g.value, 0.0) << g.labels[0].second;
    ++seen;
  }
  // Workers "0".."2" plus the "caller" deque.
  EXPECT_GE(seen, 4u);
}

TEST(EngineFleet, ConcurrentPushersAndDrainerAreRaceFree) {
  // Many producer threads announce interleaved node streams onto a bus
  // the stream is attached to, while the consumer drains concurrently —
  // the TSan job's main quarry.
  static const core::ClassificationPipeline pipeline = [] {
    core::PipelineOptions options;
    options.parallelism = 4;
    return core::make_trained_pipeline(options);
  }();

  monitor::MetricBus bus;
  engine::FleetStream stream(pipeline);
  stream.attach(bus);

  const auto& pools = core::collect_training_pools();
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    producers.emplace_back([&, p] {
      for (const auto& snapshot : pools[p].pool.snapshots())
        bus.announce(snapshot);
      finished.fetch_add(1);
    });
  }
  // Drain concurrently with the producers, then once more after they are
  // all done to sweep the tail.
  std::size_t drained = 0;
  while (finished.load() < producers.size()) drained += stream.drain();
  for (auto& t : producers) t.join();
  drained += stream.drain();
  stream.detach();

  std::size_t expected = 0;
  for (const auto& lp : pools)
    for (const auto& snapshot : lp.pool.snapshots())
      if (snapshot.time % 5 == 0) ++expected;
  EXPECT_EQ(drained, expected);
  EXPECT_EQ(stream.online().classified_count(), expected);
  for (const auto& lp : pools)
    EXPECT_TRUE(stream.online().current_class(lp.pool.node_ip()).has_value());
}

TEST(EngineFleet, ConcurrentBatchClassifiersShareOnePipeline) {
  static const core::ClassificationPipeline pipeline = [] {
    core::PipelineOptions options;
    options.parallelism = 2;
    return core::make_trained_pipeline(options);
  }();
  const auto& pools = core::collect_training_pools();
  std::vector<metrics::DataPool> inputs;
  for (const auto& lp : pools) inputs.push_back(lp.pool);

  // Two threads running fleet batches against the same pipeline and the
  // same execution context at once: one task per pool, each classify()
  // sharding further on that context.
  const auto batch = [&] {
    std::vector<core::ClassificationResult> results(inputs.size());
    pipeline.context()->for_each(inputs.size(), [&](std::size_t p) {
      results[p] = pipeline.classify(inputs[p]);
    });
    return results;
  };
  std::vector<core::ClassificationResult> a, b;
  std::thread other([&] { a = batch(); });
  b = batch();
  other.join();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_vector, b[i].class_vector);
    EXPECT_EQ(a[i].confidences, b[i].confidences);
  }
}

}  // namespace
}  // namespace appclass
