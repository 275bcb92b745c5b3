// Model-health observability primitives: bounded label cardinality, the
// PSI drift detector (determinism, hysteresis, stationary silence), and
// the ModelHealth aggregator's scorecards.
#include "obs/health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/cardinality.hpp"
#include "obs/drift.hpp"

namespace appclass {
namespace {

// ---------------------------------------------------------------- labels

TEST(BoundedLabelSet, AdmitsUpToBudgetThenOverflows) {
  obs::BoundedLabelSet labels(2);
  const std::string& a = labels.admit("a");
  const std::string& b = labels.admit("b");
  const std::string& c = labels.admit("c");
  EXPECT_EQ(a, "a");
  EXPECT_EQ(b, "b");
  EXPECT_EQ(c, "other");
  EXPECT_EQ(&c, &labels.overflow_label());
  EXPECT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels.overflowed(), 1u);
  // Re-admitting a known value returns the same stored string.
  EXPECT_EQ(&labels.admit("a"), &a);
  // Overflowed values stay overflowed even after re-asking; the distinct
  // overflow count does not double-count them.
  EXPECT_EQ(labels.admit("c"), "other");
  EXPECT_EQ(labels.overflowed(), 1u);
}

TEST(BoundedLabelSet, ConcurrentAdmissionStaysBounded) {
  obs::BoundedLabelSet labels(8);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&labels, t] {
      for (int i = 0; i < 100; ++i)
        (void)labels.admit("node-" + std::to_string(t * 100 + i));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(labels.size(), 8u);
  EXPECT_EQ(labels.overflowed(), 400u - 8u);
}

// ----------------------------------------------------------------- drift

/// Deterministic pseudo-random stream (no global RNG state in tests).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  /// Uniform double in [0, 1).
  double next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state_ >> 11) /
           static_cast<double>(1ull << 53);
  }

 private:
  std::uint64_t state_;
};

/// Feeds `n` 2-D samples centred at (x, y) with +-0.5 jitter.
void feed(obs::DriftDetector& detector, Lcg& rng, std::size_t n, double x,
          double y) {
  for (std::size_t i = 0; i < n; ++i) {
    const double sample[2] = {x + rng.next() - 0.5, y + rng.next() - 0.5};
    detector.observe(sample);
  }
}

TEST(DriftDetector, StationaryStreamStaysSilent) {
  obs::DriftDetector detector;
  Lcg rng(1);
  feed(detector, rng, 600, 0.0, 0.0);
  EXPECT_TRUE(detector.reference_ready());
  EXPECT_EQ(detector.events(), 0u);
  EXPECT_FALSE(detector.drifting(0) || detector.drifting(1));
  EXPECT_LT(detector.max_score(), obs::DriftDetector::kFireThreshold);
}

TEST(DriftDetector, PhaseChangeFiresOnceAndClearsWithHysteresis) {
  obs::DriftDetector detector;
  std::size_t fired = 0;
  std::size_t fired_component = 99;
  detector.on_drift([&](std::size_t component, double score) {
    ++fired;
    fired_component = component;
    EXPECT_GE(score, obs::DriftDetector::kFireThreshold);
  });

  Lcg rng(2);
  feed(detector, rng, 450, 0.0, 0.0);  // reference + stable stream
  ASSERT_EQ(detector.events(), 0u);

  // Phase change on component 0 only: the x-cluster jumps far outside
  // the reference quantiles.
  feed(detector, rng, 200, 6.0, 0.0);
  EXPECT_EQ(detector.events(), 1u);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(fired_component, 0u);
  EXPECT_TRUE(detector.drifting(0));
  EXPECT_GE(detector.score(0), obs::DriftDetector::kFireThreshold);

  // Still drifted: no re-fire while in the drifting state (hysteresis).
  feed(detector, rng, 200, 6.0, 0.0);
  EXPECT_EQ(detector.events(), 1u);

  // Back to the reference distribution: the state clears...
  feed(detector, rng, 400, 0.0, 0.0);
  EXPECT_FALSE(detector.drifting(0) || detector.drifting(1));
  // ...and a second excursion fires a second event (rising edge again).
  feed(detector, rng, 200, 6.0, 0.0);
  EXPECT_EQ(detector.events(), 2u);
}

TEST(DriftDetector, SameStreamSameScoresAndEvents) {
  const auto run = [] {
    obs::DriftDetector detector;
    Lcg rng(3);
    feed(detector, rng, 400, 0.0, 0.0);
    feed(detector, rng, 200, 4.0, -2.0);
    return std::make_tuple(detector.score(0), detector.score(1),
                           detector.events(), detector.samples_seen());
  };
  const auto first = run();
  const auto second = run();
  // Bit-identical, not approximately equal: the detector is a pure
  // function of the observed stream.
  EXPECT_EQ(first, second);
}

TEST(DriftDetector, ExplicitReferenceSkipsWarmup) {
  obs::DriftDetector detector;
  Lcg rng(4);
  std::vector<double> reference;
  for (std::size_t i = 0; i < 2 * detector.window(); ++i) {
    reference.push_back(rng.next() - 0.5);
    reference.push_back(rng.next() - 0.5);
  }
  detector.set_reference(reference, 2);
  EXPECT_TRUE(detector.reference_ready());
  // The stream never spends samples on warmup: a drifted stream fires as
  // soon as the sliding window fills (plus one 16-sample rescore stride).
  feed(detector, rng, detector.window() + 16, 7.0, 7.0);
  EXPECT_GE(detector.events(), 1u);
}

TEST(DriftDetector, JsonExposesComponentScores) {
  obs::DriftDetector detector;
  Lcg rng(5);
  feed(detector, rng, 300, 1.0, 2.0);
  const std::string json = detector.to_json();
  EXPECT_NE(json.find("\"reference_ready\":true"), std::string::npos);
  EXPECT_NE(json.find("\"components\":["), std::string::npos);
  EXPECT_NE(json.find("\"component\":1"), std::string::npos);
}

// ---------------------------------------------------------------- health

obs::ModelHealthOptions three_class_options() {
  obs::ModelHealthOptions options;
  options.class_names = {"idle", "cpu", "io"};
  return options;
}

obs::HealthSample make_sample(std::string_view node, std::size_t cls) {
  obs::HealthSample sample;
  sample.node_ip = node;
  sample.class_index = cls;
  sample.confidence = 1.0;
  sample.vote_margin = 1.0;
  return sample;
}

TEST(ModelHealth, PerClassAndPerNodeScorecards) {
  obs::ModelHealth health(three_class_options());
  health.record(make_sample("10.0.0.1", 1));
  health.record(make_sample("10.0.0.1", 1));
  health.record(make_sample("10.0.0.2", 2));

  EXPECT_EQ(health.samples(), 3u);
  const std::string classes = health.classes_json();
  EXPECT_NE(classes.find("\"total_samples\":3"), std::string::npos);
  EXPECT_NE(classes.find("\"class\":\"cpu\",\"samples\":2"),
            std::string::npos);
  const std::string nodes = health.nodes_json();
  EXPECT_NE(nodes.find("\"node\":\"10.0.0.1\",\"samples\":2"),
            std::string::npos);
  EXPECT_NE(nodes.find("\"last_class\":\"io\""), std::string::npos);
}

TEST(ModelHealth, NodeCardinalityIsBoundedIntoOther) {
  obs::ModelHealth health(three_class_options());  // 16 scorecards
  for (int n = 1; n <= 18; ++n)
    health.record(make_sample("n" + std::to_string(n), 0));
  const std::string nodes = health.nodes_json();
  EXPECT_NE(nodes.find("\"tracked\":16"), std::string::npos);
  EXPECT_NE(nodes.find("\"overflowed\":2"), std::string::npos);
  EXPECT_NE(nodes.find("\"node\":\"other\",\"samples\":2"),
            std::string::npos);
}

TEST(ModelHealth, DegradedNodeFlipsStatusTo503Verdict) {
  obs::ModelHealth health(three_class_options());
  health.record(make_sample("n1", 0));
  EXPECT_TRUE(health.status().healthy);

  obs::HealthSample degraded = make_sample("n2", 0);
  degraded.coverage = 0.25;
  degraded.degraded = true;
  degraded.abstained = true;
  health.record(degraded);

  const obs::ModelHealth::Status status = health.status();
  EXPECT_FALSE(status.healthy);
  EXPECT_EQ(status.degraded_nodes, 1u);
  EXPECT_NE(status.reason_json.find("\"status\":\"degraded\""),
            std::string::npos);
  EXPECT_NE(status.reason_json.find("\"node\":\"n2\""), std::string::npos);
  EXPECT_EQ(health.abstained(), 1u);

  // Recovery: the same node reporting healthy coverage clears the status.
  health.record(make_sample("n2", 0));
  EXPECT_TRUE(health.status().healthy);
}

TEST(ModelHealth, NovelFractionTracksRollingWindow) {
  obs::ModelHealth health(three_class_options());  // 256-sample window
  obs::HealthSample novel = make_sample("n1", 0);
  novel.novel = true;
  health.record(novel);
  health.record(novel);
  EXPECT_DOUBLE_EQ(health.novel_fraction(), 1.0);
  health.record(make_sample("n1", 0));
  health.record(make_sample("n1", 0));
  EXPECT_DOUBLE_EQ(health.novel_fraction(), 0.5);
  // Fill the window: the two novel samples are 2 of the last 256.
  for (int i = 0; i < 252; ++i) health.record(make_sample("n1", 0));
  EXPECT_DOUBLE_EQ(health.novel_fraction(), 2.0 / 256.0);
  // Two more clean samples push the novel ones out of the window.
  health.record(make_sample("n1", 0));
  health.record(make_sample("n1", 0));
  EXPECT_DOUBLE_EQ(health.novel_fraction(), 0.0);
}

TEST(ModelHealth, SummaryLineIsOneLine) {
  obs::ModelHealth health(three_class_options());
  health.record(make_sample("n1", 1));
  const std::string line = health.summary_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("health: samples=1"), std::string::npos);
  EXPECT_NE(line.find("drift_events=0"), std::string::npos);
}

TEST(ModelHealth, DriftFeedReachesDetector) {
  obs::ModelHealth health(three_class_options());
  std::size_t fired = 0;
  health.on_drift([&](std::size_t, double) { ++fired; });
  Lcg rng(6);
  for (int i = 0; i < 450; ++i) {
    obs::HealthSample sample = make_sample("n1", 0);
    const double projected[2] = {rng.next() - 0.5, rng.next() - 0.5};
    sample.projected = projected;
    health.record(sample);
  }
  EXPECT_EQ(health.drift_events(), 0u);
  for (int i = 0; i < 250; ++i) {
    obs::HealthSample sample = make_sample("n1", 0);
    const double projected[2] = {8.0 + rng.next(), rng.next() - 0.5};
    sample.projected = projected;
    health.record(sample);
  }
  EXPECT_GE(health.drift_events(), 1u);
  EXPECT_EQ(fired, health.drift_events());
  EXPECT_NE(health.drift_json().find("\"drifting\":true"),
            std::string::npos);
}

}  // namespace
}  // namespace appclass
