// Model-health integration across the classification stack: the detailed
// per-snapshot evidence path, observational transparency of the health
// layer (bit-identical labels and change events with it on or off), the
// drift acceptance criteria on recorded canonical streams, and fleet
// ingest backpressure.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/robustness.hpp"
#include "core/trainer.hpp"
#include "engine/fleet.hpp"
#include "obs/health.hpp"

namespace appclass {
namespace {

/// Trains once and records the canonical streams once for the whole
/// suite: both involve full simulated runs and dominate the test's cost.
class HealthPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineOptions options;
    options.novelty_threshold = 3.0;
    pipeline_ = new core::ClassificationPipeline(
        core::make_trained_pipeline(options));
    runs_ = new std::vector<core::RecordedRun>(core::record_canonical_runs());
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
    delete runs_;
    runs_ = nullptr;
  }

  /// `count` grid-aligned snapshots (t = 0, 5, 10, ...) on one node,
  /// cycling the announcements of run `run_index`.
  static std::vector<metrics::Snapshot> grid_stream(std::size_t run_index,
                                                    std::size_t count,
                                                    metrics::SimTime t0 = 0) {
    const auto& source = (*runs_)[run_index].announcements;
    std::vector<metrics::Snapshot> stream;
    stream.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      metrics::Snapshot snapshot = source[i % source.size()];
      snapshot.time = t0 + static_cast<metrics::SimTime>(i) * 5;
      snapshot.node_ip = "10.0.0.1";
      stream.push_back(snapshot);
    }
    return stream;
  }

  static core::ClassificationPipeline* pipeline_;
  static std::vector<core::RecordedRun>* runs_;
};

core::ClassificationPipeline* HealthPipelineTest::pipeline_ = nullptr;
std::vector<core::RecordedRun>* HealthPipelineTest::runs_ = nullptr;

TEST_F(HealthPipelineTest, DetailedClassifyMatchesPlainClassify) {
  for (const auto& run : *runs_) {
    for (std::size_t i = 0; i < run.announcements.size(); i += 7) {
      const auto& snapshot = run.announcements[i];
      const core::ApplicationClass plain = pipeline_->classify(snapshot);
      const core::SnapshotClassification detail =
          pipeline_->classify_detailed(snapshot);
      ASSERT_EQ(detail.label, plain) << run.workload << " @ " << i;
      EXPECT_GT(detail.confidence, 0.0);
      EXPECT_LE(detail.confidence, 1.0);
      EXPECT_GE(detail.vote_margin, 0.0);
      EXPECT_LE(detail.vote_margin, 1.0);
      EXPECT_GE(detail.novelty, 0.0);
      EXPECT_EQ(detail.projected.size(), pipeline_->pca().components());
    }
  }
}

TEST_F(HealthPipelineTest, HealthLayerIsObservationallyTransparent) {
  // Interleave two workloads so the stream exercises behaviour changes.
  std::vector<metrics::Snapshot> stream = grid_stream(0, 120);
  const std::vector<metrics::Snapshot> second =
      grid_stream(2, 120, /*t0=*/120 * 5);
  stream.insert(stream.end(), second.begin(), second.end());

  core::OnlineClassifier bare(*pipeline_);
  core::OnlineClassifier monitored(*pipeline_);
  obs::ModelHealth health(core::make_health_options());
  monitored.attach_health(&health);

  std::vector<core::BehaviourChange> bare_changes;
  std::vector<core::BehaviourChange> monitored_changes;
  bare.on_change([&](const core::BehaviourChange& c) {
    bare_changes.push_back(c);
  });
  monitored.on_change([&](const core::BehaviourChange& c) {
    monitored_changes.push_back(c);
  });

  for (const auto& snapshot : stream) {
    const std::optional<core::ApplicationClass> a = bare.observe(snapshot);
    const std::optional<core::ApplicationClass> b =
        monitored.observe(snapshot);
    ASSERT_EQ(a, b) << "label diverged at t=" << snapshot.time;
  }

  // Bit-identical classification state with the health layer attached.
  EXPECT_EQ(bare.classified_count(), monitored.classified_count());
  EXPECT_EQ(bare.abstained_count(), monitored.abstained_count());
  ASSERT_EQ(bare_changes.size(), monitored_changes.size());
  for (std::size_t i = 0; i < bare_changes.size(); ++i) {
    EXPECT_EQ(bare_changes[i].time, monitored_changes[i].time);
    EXPECT_EQ(bare_changes[i].from, monitored_changes[i].from);
    EXPECT_EQ(bare_changes[i].to, monitored_changes[i].to);
  }

  // And the health side actually observed the stream.
  EXPECT_EQ(health.samples(), monitored.classified_count());
  EXPECT_NE(health.classes_json().find("\"classes\":["), std::string::npos);
  EXPECT_NE(health.nodes_json().find("\"node\":\"10.0.0.1\""),
            std::string::npos);
}

TEST_F(HealthPipelineTest, DriftStaysSilentOnStationaryCanonicalStream) {
  obs::ModelHealth health(core::make_health_options());
  core::OnlineClassifier classifier(*pipeline_);
  classifier.attach_health(&health);

  // Reference = the projected distribution of the canonical stream
  // itself, so replaying that same stream is stationary by construction
  // (the self-freezing path is covered by the unit tests).
  const std::vector<metrics::Snapshot> stream = grid_stream(1, 700);
  std::vector<double> reference;
  reference.reserve(2 * stream.size());
  std::size_t components = 0;
  for (const auto& snapshot : stream) {
    const core::SnapshotClassification detail =
        pipeline_->classify_detailed(snapshot);
    components = detail.projected.size();
    reference.insert(reference.end(), detail.projected.begin(),
                     detail.projected.end());
  }
  health.set_drift_reference(reference, components);

  for (const auto& snapshot : stream) classifier.observe(snapshot);
  EXPECT_EQ(health.drift_events(), 0u)
      << "stationary canonical stream fired drift: "
      << health.drift_json();
}

TEST_F(HealthPipelineTest, DriftFiresOnPhaseChangeStream) {
  obs::ModelHealth health(core::make_health_options());
  core::OnlineClassifier classifier(*pipeline_);
  classifier.attach_health(&health);

  // Same reference as the stationary test: run 1's projected stream.
  const std::vector<metrics::Snapshot> base = grid_stream(1, 700);
  std::vector<double> reference;
  std::size_t components = 0;
  for (const auto& snapshot : base) {
    const core::SnapshotClassification detail =
        pipeline_->classify_detailed(snapshot);
    components = detail.projected.size();
    reference.insert(reference.end(), detail.projected.begin(),
                     detail.projected.end());
  }
  health.set_drift_reference(reference, components);

  // Synthetic phase change: the node behaves like run 1, then switches
  // to run 3's behaviour class mid-stream.
  std::vector<metrics::Snapshot> stream = grid_stream(1, 350);
  const std::vector<metrics::Snapshot> after =
      grid_stream(3, 350, /*t0=*/350 * 5);
  stream.insert(stream.end(), after.begin(), after.end());

  std::size_t fired = 0;
  health.on_drift([&](std::size_t, double) { ++fired; });
  for (const auto& snapshot : stream) classifier.observe(snapshot);

  EXPECT_GE(health.drift_events(), 1u)
      << "phase change did not fire: " << health.drift_json();
  EXPECT_EQ(fired, health.drift_events());
}

TEST_F(HealthPipelineTest, FleetStreamDropsOnFullBacklog) {
  core::OnlineOptions options;
  engine::FleetStream stream(*pipeline_, options, /*max_backlog=*/4);
  const std::vector<metrics::Snapshot> snapshots = grid_stream(0, 10);
  std::size_t accepted = 0;
  for (const auto& snapshot : snapshots)
    if (stream.push(snapshot)) ++accepted;
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(stream.backlog(), 4u);
  EXPECT_EQ(stream.backlog_peak(), 4u);
  EXPECT_EQ(stream.dropped(), 6u);

  EXPECT_EQ(stream.drain(), 4u);
  EXPECT_EQ(stream.backlog(), 0u);
  // The buffer accepts again after the drain; the peak is sticky.
  EXPECT_TRUE(stream.push(snapshots[0]));
  EXPECT_EQ(stream.backlog_peak(), 4u);
}

TEST_F(HealthPipelineTest, FleetDrainFeedsAttachedHealth) {
  obs::ModelHealth health(core::make_health_options());
  engine::FleetStream monitored(*pipeline_);
  monitored.online().attach_health(&health);
  engine::FleetStream bare(*pipeline_);

  const std::vector<metrics::Snapshot> snapshots = grid_stream(2, 60);
  for (const auto& snapshot : snapshots) {
    monitored.push(snapshot);
    bare.push(snapshot);
  }
  EXPECT_EQ(monitored.drain(), 60u);
  EXPECT_EQ(bare.drain(), 60u);

  // The detailed drain path fed health and produced the same window
  // state as the label-only drain.
  EXPECT_EQ(health.samples(), 60u);
  EXPECT_EQ(monitored.online().current_class("10.0.0.1"),
            bare.online().current_class("10.0.0.1"));
  EXPECT_EQ(monitored.online().classified_count(),
            bare.online().classified_count());
}

}  // namespace
}  // namespace appclass
