#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "core_test_util.hpp"
#include "obs/metrics.hpp"

namespace appclass::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { pipeline_.train(testing::synthetic_training()); }
  ClassificationPipeline pipeline_;
};

TEST_F(PipelineTest, TrainedStateAndDimensions) {
  EXPECT_TRUE(pipeline_.trained());
  EXPECT_EQ(pipeline_.pca().components(), 2u);
  EXPECT_EQ(pipeline_.knn().dimension(), 2u);
  EXPECT_EQ(pipeline_.knn().training_size(), 5u * 40u);
}

TEST_F(PipelineTest, ClassifiesEachSyntheticClassCorrectly) {
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const auto cls = class_from_index(c);
    const auto pool = testing::synthetic_pool(cls, 30, 100 + c);
    const auto result = pipeline_.classify(pool);
    EXPECT_EQ(result.application_class, cls)
        << "expected " << to_string(cls) << " got "
        << to_string(result.application_class);
    EXPECT_GT(result.composition.fraction(cls), 0.8);
  }
}

TEST_F(PipelineTest, ClassVectorLengthMatchesPool) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kIo, 17, 9);
  const auto result = pipeline_.classify(pool);
  EXPECT_EQ(result.class_vector.size(), 17u);
  EXPECT_EQ(result.projected.rows(), 17u);
  EXPECT_EQ(result.projected.cols(), 2u);
  EXPECT_EQ(result.composition.samples(), 17u);
}

TEST_F(PipelineTest, CompositionMatchesClassVector) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kCpu, 25, 10);
  const auto result = pipeline_.classify(pool);
  std::size_t cpu_count = 0;
  for (auto c : result.class_vector)
    cpu_count += (c == ApplicationClass::kCpu);
  EXPECT_DOUBLE_EQ(result.composition.fraction(ApplicationClass::kCpu),
                   static_cast<double>(cpu_count) / 25.0);
}

TEST_F(PipelineTest, OnlineSnapshotMatchesBatch) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kNetwork, 10, 11);
  const auto batch = pipeline_.classify(pool);
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(pipeline_.classify(pool[i]), batch.class_vector[i]);
}

TEST_F(PipelineTest, ProjectMatchesClassifyProjection) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kMemory, 8, 12);
  const auto proj = pipeline_.project(pool);
  const auto result = pipeline_.classify(pool);
  EXPECT_LT(proj.max_abs_diff(result.projected), 1e-12);
}

TEST_F(PipelineTest, MixedPoolYieldsMixedComposition) {
  metrics::DataPool mixed("10.0.0.1");
  linalg::Rng rng(13);
  for (int i = 0; i < 30; ++i)
    mixed.add(testing::synthetic_snapshot(
        i < 20 ? ApplicationClass::kIo : ApplicationClass::kIdle, rng,
        5 * i));
  const auto result = pipeline_.classify(mixed);
  EXPECT_EQ(result.application_class, ApplicationClass::kIo);
  EXPECT_NEAR(result.composition.fraction(ApplicationClass::kIo), 2.0 / 3.0,
              0.15);
  EXPECT_NEAR(result.composition.fraction(ApplicationClass::kIdle), 1.0 / 3.0,
              0.15);
}

TEST(Pipeline, CustomMetricSelection) {
  PipelineOptions options;
  options.selected_metrics = {metrics::MetricId::kCpuUser,
                              metrics::MetricId::kIoBi};
  options.pca.forced_components = 1;
  ClassificationPipeline pipeline(options);
  pipeline.train(testing::synthetic_training());
  EXPECT_EQ(pipeline.preprocessor().dimension(), 2u);
  EXPECT_EQ(pipeline.pca().components(), 1u);
  // CPU vs IO are still separable on those two metrics alone.
  const auto cpu = testing::synthetic_pool(ApplicationClass::kCpu, 20, 55);
  EXPECT_EQ(pipeline.classify(cpu).application_class, ApplicationClass::kCpu);
}

TEST(Pipeline, VarianceThresholdPathSelectsComponents) {
  PipelineOptions options;
  options.pca.forced_components = 0;
  options.pca.min_fraction_variance = 0.55;
  ClassificationPipeline pipeline(options);
  pipeline.train(testing::synthetic_training());
  EXPECT_GE(pipeline.pca().components(), 1u);
  EXPECT_GE(pipeline.pca().captured_variance(), 0.55);
}

// The registry is process-global and other tests in this binary also
// classify, so all observability assertions work on before/after deltas.
TEST(PipelineObservability, TrainAndClassifyPopulateStageHistograms) {
  auto& registry = obs::MetricsRegistry::global();
  const auto hist_count = [&](const char* stage) -> std::uint64_t {
    const auto snapshot = registry.snapshot();
    const auto* h = snapshot.find_histogram("appclass_stage_seconds",
                                            {{"stage", stage}});
    return h ? h->count : 0;
  };
  const auto counter_value = [&](const char* name) -> std::uint64_t {
    const auto snapshot = registry.snapshot();
    const auto* c = snapshot.find_counter(name);
    return c ? c->value : 0;
  };

  const std::uint64_t preprocess0 = hist_count("preprocess");
  const std::uint64_t pca_fit0 = hist_count("pca_fit");
  const std::uint64_t pca_project0 = hist_count("pca_project");
  const std::uint64_t knn0 = hist_count("knn_query");
  const std::uint64_t vote0 = hist_count("vote");
  const std::uint64_t trains0 = counter_value("appclass_pipeline_train_total");
  const std::uint64_t snaps0 =
      counter_value("appclass_pipeline_snapshots_classified_total");

  ClassificationPipeline pipeline;
  pipeline.train(testing::synthetic_training());
  const auto pool = testing::synthetic_pool(ApplicationClass::kCpu, 23, 7);
  const auto result = pipeline.classify(pool);
  ASSERT_EQ(result.class_vector.size(), 23u);

  // Every stage histogram gained observations...
  EXPECT_GT(hist_count("preprocess"), preprocess0);
  EXPECT_GT(hist_count("pca_fit"), pca_fit0);
  EXPECT_GT(hist_count("pca_project"), pca_project0);
  EXPECT_GT(hist_count("vote"), vote0);
  // ...and knn_query advanced by exactly one count per snapshot.
  EXPECT_EQ(hist_count("knn_query"), knn0 + 23u);
  EXPECT_EQ(counter_value("appclass_pipeline_train_total"), trains0 + 1u);
  EXPECT_EQ(counter_value("appclass_pipeline_snapshots_classified_total"),
            snaps0 + 23u);

  // The per-snapshot (online) path counts snapshots too.
  const std::uint64_t snaps1 =
      counter_value("appclass_pipeline_snapshots_classified_total");
  (void)pipeline.classify(pool[0]);
  EXPECT_EQ(counter_value("appclass_pipeline_snapshots_classified_total"),
            snaps1 + 1u);
}

TEST(Pipeline, LargerKStillSeparatesCleanClusters) {
  PipelineOptions options;
  options.knn.k = 9;
  ClassificationPipeline pipeline(options);
  pipeline.train(testing::synthetic_training());
  const auto net = testing::synthetic_pool(ApplicationClass::kNetwork, 15, 77);
  EXPECT_EQ(pipeline.classify(net).application_class,
            ApplicationClass::kNetwork);
}

}  // namespace
}  // namespace appclass::core
