// Threaded classification must be bit-identical to serial — not "close",
// identical. The engine guarantees it structurally (fixed grain-based
// shard boundaries, per-slot writes, serial reductions); this suite
// proves it on the five canonical workloads across parallelism 1/2/8,
// for the batch pipeline, the fleet batch classifier, and the online
// fleet stream.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "engine/fleet.hpp"

namespace appclass {
namespace {

const std::vector<core::LabeledPool>& canonical_pools() {
  static const std::vector<core::LabeledPool> pools =
      core::collect_training_pools();
  return pools;
}

core::ClassificationPipeline trained(std::size_t parallelism) {
  core::PipelineOptions options;
  options.novelty_threshold = 2.5;  // exercise the novelty vector too
  options.parallelism = parallelism;
  core::ClassificationPipeline pipeline(options);
  pipeline.train(canonical_pools());
  return pipeline;
}

void expect_identical(const core::ClassificationResult& serial,
                      const core::ClassificationResult& threaded) {
  // operator== on vectors/Matrix compares element bits for doubles —
  // exactly the claim under test.
  EXPECT_EQ(serial.class_vector, threaded.class_vector);
  EXPECT_EQ(serial.confidences, threaded.confidences);
  EXPECT_EQ(serial.novelty, threaded.novelty);
  EXPECT_EQ(serial.projected, threaded.projected);
  EXPECT_EQ(serial.application_class, threaded.application_class);
  EXPECT_EQ(serial.mean_confidence(), threaded.mean_confidence());
  EXPECT_EQ(serial.novel_fraction(), threaded.novel_fraction());
}

TEST(EngineDeterminism, ThreadedPipelineMatchesSerialOnCanonicalWorkloads) {
  const core::ClassificationPipeline serial = trained(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const core::ClassificationPipeline threaded = trained(threads);
    // Training itself must be deterministic first.
    EXPECT_EQ(serial.knn().training_points(), threaded.knn().training_points())
        << "threads=" << threads;
    for (const auto& lp : canonical_pools())
      expect_identical(serial.classify(lp.pool), threaded.classify(lp.pool));
  }
}

TEST(EngineDeterminism, SetParallelismDoesNotChangeResults) {
  core::ClassificationPipeline pipeline = trained(1);
  const auto baseline = pipeline.classify(canonical_pools()[0].pool);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{8}, std::size_t{1}}) {
    pipeline.set_parallelism(threads);
    expect_identical(baseline, pipeline.classify(canonical_pools()[0].pool));
  }
}

TEST(EngineDeterminism, BatchClassifierMatchesPerPoolSerialCalls) {
  const core::ClassificationPipeline serial = trained(1);
  const core::ClassificationPipeline pooled = trained(8);
  std::vector<metrics::DataPool> pools;
  for (const auto& lp : canonical_pools()) pools.push_back(lp.pool);

  // One task per pool on the pipeline's context; each classify() shards
  // further on the same context.
  std::vector<core::ClassificationResult> results(pools.size());
  pooled.context()->for_each(pools.size(), [&](std::size_t p) {
    results[p] = pooled.classify(pools[p]);
  });
  ASSERT_EQ(results.size(), pools.size());
  for (std::size_t p = 0; p < pools.size(); ++p)
    expect_identical(serial.classify(pools[p]), results[p]);
}

TEST(EngineDeterminism, FleetStreamDrainMatchesObserveByObserve) {
  const core::ClassificationPipeline serial = trained(1);
  const core::ClassificationPipeline pooled = trained(8);

  // Reference: observe() snapshot by snapshot, recording change events.
  core::OnlineClassifier reference(serial);
  std::vector<core::BehaviourChange> reference_changes;
  reference.on_change([&](const core::BehaviourChange& change) {
    reference_changes.push_back(change);
  });

  engine::FleetStream stream(pooled);
  std::vector<core::BehaviourChange> stream_changes;
  stream.online().on_change([&](const core::BehaviourChange& change) {
    stream_changes.push_back(change);
  });

  // Interleave the five nodes' streams the way a bus would deliver them,
  // draining mid-stream at irregular points.
  std::size_t pushed = 0;
  const auto& pools = canonical_pools();
  const std::size_t longest = [&] {
    std::size_t n = 0;
    for (const auto& lp : pools) n = std::max(n, lp.pool.size());
    return n;
  }();
  for (std::size_t i = 0; i < longest; ++i) {
    for (const auto& lp : pools) {
      if (i >= lp.pool.size()) continue;
      reference.observe(lp.pool[i]);
      stream.push(lp.pool[i]);
      ++pushed;
      if (pushed % 97 == 0) stream.drain();
    }
  }
  stream.drain();
  EXPECT_EQ(stream.backlog(), 0u);

  EXPECT_EQ(stream.online().classified_count(), reference.classified_count());
  EXPECT_EQ(stream.online().abstained_count(), reference.abstained_count());
  ASSERT_EQ(stream_changes.size(), reference_changes.size());
  for (std::size_t i = 0; i < stream_changes.size(); ++i) {
    EXPECT_EQ(stream_changes[i].node_ip, reference_changes[i].node_ip);
    EXPECT_EQ(stream_changes[i].time, reference_changes[i].time);
    EXPECT_EQ(stream_changes[i].from, reference_changes[i].from);
    EXPECT_EQ(stream_changes[i].to, reference_changes[i].to);
  }
  for (const auto& lp : pools) {
    const std::string& ip = lp.pool.node_ip();
    EXPECT_EQ(stream.online().current_class(ip), reference.current_class(ip));
    EXPECT_EQ(stream.online().coverage(ip), reference.coverage(ip));
  }
}

}  // namespace
}  // namespace appclass
