#include "core/evaluation.hpp"

#include <gtest/gtest.h>

#include "core_test_util.hpp"

namespace appclass::core {
namespace {

TEST(ConfusionMatrix, CountsAndAccuracy) {
  ConfusionMatrix cm;
  cm.add(ApplicationClass::kCpu, ApplicationClass::kCpu);
  cm.add(ApplicationClass::kCpu, ApplicationClass::kIo);
  cm.add(ApplicationClass::kIo, ApplicationClass::kIo);
  cm.add(ApplicationClass::kIo, ApplicationClass::kIo);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_EQ(cm.count(ApplicationClass::kCpu, ApplicationClass::kIo), 1u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
}

TEST(ConfusionMatrix, PrecisionRecallF1) {
  ConfusionMatrix cm;
  // cpu: 2 true, 1 predicted as io.  io: 2 true, 1 predicted as cpu.
  cm.add(ApplicationClass::kCpu, ApplicationClass::kCpu);
  cm.add(ApplicationClass::kCpu, ApplicationClass::kIo);
  cm.add(ApplicationClass::kIo, ApplicationClass::kCpu);
  cm.add(ApplicationClass::kIo, ApplicationClass::kIo);
  EXPECT_DOUBLE_EQ(cm.precision(ApplicationClass::kCpu), 0.5);
  EXPECT_DOUBLE_EQ(cm.recall(ApplicationClass::kCpu), 0.5);
  EXPECT_DOUBLE_EQ(cm.f1(ApplicationClass::kCpu), 0.5);
}

TEST(ConfusionMatrix, VacuousClassesScoreOne) {
  ConfusionMatrix cm;
  cm.add(ApplicationClass::kCpu, ApplicationClass::kCpu);
  EXPECT_DOUBLE_EQ(cm.precision(ApplicationClass::kNetwork), 1.0);
  EXPECT_DOUBLE_EQ(cm.recall(ApplicationClass::kNetwork), 1.0);
}

TEST(ConfusionMatrix, MacroF1IgnoresAbsentClasses) {
  ConfusionMatrix cm;
  cm.add(ApplicationClass::kCpu, ApplicationClass::kCpu);
  cm.add(ApplicationClass::kIo, ApplicationClass::kIo);
  EXPECT_DOUBLE_EQ(cm.macro_f1(), 1.0);
}

TEST(ConfusionMatrix, MergeAddsCounts) {
  ConfusionMatrix a, b;
  a.add(ApplicationClass::kCpu, ApplicationClass::kCpu);
  b.add(ApplicationClass::kCpu, ApplicationClass::kIdle);
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_DOUBLE_EQ(a.accuracy(), 0.5);
}

TEST(Evaluation, FlattenPreservesCountsAndLabels) {
  const auto pools = testing::synthetic_training(10);
  const auto flat = flatten(pools);
  EXPECT_EQ(flat.size(), 10u * kClassCount);
  EXPECT_EQ(flat.labels.front(), ApplicationClass::kIdle);
  EXPECT_EQ(flat.labels.back(), ApplicationClass::kMemory);
}

TEST(Evaluation, EvaluateOnTrainingDataIsNearPerfect) {
  const auto pools = testing::synthetic_training();
  ClassificationPipeline pipeline;
  pipeline.train(pools);
  const auto cm = evaluate(pipeline, flatten(pools));
  EXPECT_GT(cm.accuracy(), 0.98);
}

TEST(Evaluation, CrossValidationOnSeparableDataIsAccurate) {
  const auto pools = testing::synthetic_training(30);
  const auto cm = cross_validate(pools, PipelineOptions{}, 5, 3);
  EXPECT_EQ(cm.total(), 30u * kClassCount);  // every sample tested once
  EXPECT_GT(cm.accuracy(), 0.95);
  EXPECT_GT(cm.macro_f1(), 0.95);
}

TEST(Evaluation, CrossValidationDeterministicPerSeed) {
  const auto pools = testing::synthetic_training(20);
  const auto a = cross_validate(pools, PipelineOptions{}, 4, 9);
  const auto b = cross_validate(pools, PipelineOptions{}, 4, 9);
  EXPECT_DOUBLE_EQ(a.accuracy(), b.accuracy());
}

}  // namespace
}  // namespace appclass::core
