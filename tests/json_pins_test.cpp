// Byte-exact pins of the served drift, node-scorecard and SLO JSON
// bodies (/drift, /nodes, /slo). Each body prints configuration values
// (window sizes, thresholds, the node budget, objectives and windows),
// so a pin fails when any of them, or the arithmetic behind the scores,
// changes. Everything is built the way serving builds it: the default
// detector and SLO tracker, and core::make_health_options().
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/online.hpp"
#include "linalg/random.hpp"
#include "obs/drift.hpp"
#include "obs/health.hpp"
#include "obs/slo.hpp"

namespace appclass {
namespace {

/// Feeds `n` 2-D samples centred at (x, y) with +-0.5 uniform jitter.
void feed(obs::DriftDetector& detector, linalg::Rng& rng, int n, double x,
          double y) {
  for (int i = 0; i < n; ++i) {
    const double sample[2] = {x + rng.uniform() - 0.5,
                              y + rng.uniform() - 0.5};
    detector.observe(sample);
  }
}

TEST(JsonPins, DriftDetectorToJson) {
  obs::DriftDetector detector;
  linalg::Rng rng(17);
  feed(detector, rng, 100, 0.0, 0.0);
  EXPECT_EQ(detector.to_json(),
            "{\"reference_ready\":false,\"samples\":100,\"events\":0,\"wind"
            "ow\":128,\"reference_window\":256,\"fire_threshold\":0.25,\"cl"
            "ear_threshold\":0.1,\"components\":[{\"component\":0,\"score\""
            ":0,\"drifting\":false},{\"component\":1,\"score\":0,\"drifting"
            "\":false}]}");
  feed(detector, rng, 356, 0.0, 0.0);
  EXPECT_EQ(detector.to_json(),
            "{\"reference_ready\":true,\"samples\":456,\"events\":0,\"windo"
            "w\":128,\"reference_window\":256,\"fire_threshold\":0.25,\"cle"
            "ar_threshold\":0.1,\"components\":[{\"component\":0,\"score\":"
            "0.0739757,\"drifting\":false},{\"component\":1,\"score\":0.055"
            "3496,\"drifting\":false}]}");
  feed(detector, rng, 200, 0.0, 0.7);
  EXPECT_EQ(detector.to_json(),
            "{\"reference_ready\":true,\"samples\":656,\"events\":1,\"windo"
            "w\":128,\"reference_window\":256,\"fire_threshold\":0.25,\"cle"
            "ar_threshold\":0.1,\"components\":[{\"component\":0,\"score\":"
            "0.0514053,\"drifting\":false},{\"component\":1,\"score\":6.235"
            "37,\"drifting\":true}]}");
  feed(detector, rng, 400, 0.0, 0.0);
  EXPECT_EQ(detector.to_json(),
            "{\"reference_ready\":true,\"samples\":1056,\"events\":1,\"wind"
            "ow\":128,\"reference_window\":256,\"fire_threshold\":0.25,\"cl"
            "ear_threshold\":0.1,\"components\":[{\"component\":0,\"score\""
            ":0.108898,\"drifting\":false},{\"component\":1,\"score\":0.155"
            "811,\"drifting\":false}]}");
}

/// 24 nodes (more than the per-node scorecard budget) cycling the five
/// classes, with novel, degraded and abstained samples mixed in and a
/// mid-stream phase change in the projected coordinates.
obs::ModelHealth& seeded_health(obs::ModelHealth& health) {
  linalg::Rng rng(29);
  const std::string names[] = {"10.0.0.1",  "10.0.0.2",  "10.0.0.3",
                               "10.0.0.4",  "10.0.0.5",  "10.0.0.6",
                               "10.0.0.7",  "10.0.0.8",  "10.0.0.9",
                               "10.0.0.10", "10.0.0.11", "10.0.0.12",
                               "10.0.0.13", "10.0.0.14", "10.0.0.15",
                               "10.0.0.16", "10.0.0.17", "10.0.0.18",
                               "10.0.0.19", "10.0.0.20", "10.0.0.21",
                               "10.0.0.22", "10.0.0.23", "10.0.0.24"};
  for (int i = 0; i < 900; ++i) {
    const std::uint64_t node = rng.uniform_index(24);
    obs::HealthSample sample;
    sample.node_ip = names[node];
    sample.class_index = static_cast<std::size_t>(rng.uniform_index(5));
    sample.confidence = 0.4 + 0.6 * rng.uniform();
    sample.vote_margin = rng.uniform();
    sample.novel = rng.uniform() < 0.1;
    sample.coverage = node % 7 == 3 && i > 800 ? 0.25 : 1.0;
    sample.degraded = sample.coverage < 0.5;
    sample.abstained = sample.degraded;
    const double shift = i < 600 ? 0.0 : 1.5;
    const double projected[2] = {shift + rng.uniform() - 0.5,
                                 rng.uniform() - 0.5};
    sample.projected = projected;
    health.record(sample);
  }
  return health;
}

TEST(JsonPins, ModelHealthNodesJson) {
  obs::ModelHealth health(core::make_health_options());
  EXPECT_EQ(seeded_health(health).nodes_json(),
            "{\"tracked\":16,\"top_nodes\":16,\"overflowed\":8,\"nodes\":[{"
            "\"node\":\"10.0.0.1\",\"samples\":30,\"abstained\":0,\"novel\""
            ":2,\"coverage\":1,\"degraded\":false,\"last_class\":\"idle\","
            "\"per_class\":{\"idle\":7,\"io\":1,\"cpu\":5,\"network\":6,\"m"
            "emory\":11}},{\"node\":\"10.0.0.11\",\"samples\":50,\"abstaine"
            "d\":3,\"novel\":7,\"coverage\":0.25,\"degraded\":true,\"last_c"
            "lass\":\"memory\",\"per_class\":{\"idle\":6,\"io\":14,\"cpu\":"
            "12,\"network\":7,\"memory\":11}},{\"node\":\"10.0.0.12\",\"sam"
            "ples\":49,\"abstained\":0,\"novel\":3,\"coverage\":1,\"degrade"
            "d\":false,\"last_class\":\"io\",\"per_class\":{\"idle\":7,\"io"
            "\":19,\"cpu\":6,\"network\":7,\"memory\":10}},{\"node\":\"10.0"
            ".0.15\",\"samples\":38,\"abstained\":0,\"novel\":4,\"coverage"
            "\":1,\"degraded\":false,\"last_class\":\"memory\",\"per_class"
            "\":{\"idle\":8,\"io\":7,\"cpu\":3,\"network\":8,\"memory\":12}"
            "},{\"node\":\"10.0.0.16\",\"samples\":31,\"abstained\":0,\"nov"
            "el\":2,\"coverage\":1,\"degraded\":false,\"last_class\":\"cpu"
            "\",\"per_class\":{\"idle\":6,\"io\":5,\"cpu\":7,\"network\":8,"
            "\"memory\":5}},{\"node\":\"10.0.0.17\",\"samples\":38,\"abstai"
            "ned\":0,\"novel\":6,\"coverage\":1,\"degraded\":false,\"last_c"
            "lass\":\"idle\",\"per_class\":{\"idle\":9,\"io\":7,\"cpu\":5,"
            "\"network\":10,\"memory\":7}},{\"node\":\"10.0.0.18\",\"sample"
            "s\":34,\"abstained\":3,\"novel\":4,\"coverage\":0.25,\"degrade"
            "d\":true,\"last_class\":\"network\",\"per_class\":{\"idle\":8,"
            "\"io\":5,\"cpu\":7,\"network\":8,\"memory\":6}},{\"node\":\"10"
            ".0.0.19\",\"samples\":39,\"abstained\":0,\"novel\":3,\"coverag"
            "e\":1,\"degraded\":false,\"last_class\":\"cpu\",\"per_class\":"
            "{\"idle\":7,\"io\":5,\"cpu\":10,\"network\":8,\"memory\":9}},{"
            "\"node\":\"10.0.0.2\",\"samples\":42,\"abstained\":0,\"novel\""
            ":6,\"coverage\":1,\"degraded\":false,\"last_class\":\"network"
            "\",\"per_class\":{\"idle\":10,\"io\":9,\"cpu\":9,\"network\":5"
            ",\"memory\":9}},{\"node\":\"10.0.0.21\",\"samples\":38,\"absta"
            "ined\":0,\"novel\":3,\"coverage\":1,\"degraded\":false,\"last_"
            "class\":\"io\",\"per_class\":{\"idle\":9,\"io\":7,\"cpu\":6,\""
            "network\":10,\"memory\":6}},{\"node\":\"10.0.0.4\",\"samples\""
            ":36,\"abstained\":6,\"novel\":1,\"coverage\":0.25,\"degraded\""
            ":true,\"last_class\":\"cpu\",\"per_class\":{\"idle\":10,\"io\""
            ":5,\"cpu\":8,\"network\":6,\"memory\":7}},{\"node\":\"10.0.0.5"
            "\",\"samples\":29,\"abstained\":0,\"novel\":5,\"coverage\":1,"
            "\"degraded\":false,\"last_class\":\"network\",\"per_class\":{"
            "\"idle\":12,\"io\":1,\"cpu\":4,\"network\":4,\"memory\":8}},{"
            "\"node\":\"10.0.0.6\",\"samples\":31,\"abstained\":0,\"novel\""
            ":0,\"coverage\":1,\"degraded\":false,\"last_class\":\"network"
            "\",\"per_class\":{\"idle\":7,\"io\":4,\"cpu\":5,\"network\":6,"
            "\"memory\":9}},{\"node\":\"10.0.0.7\",\"samples\":34,\"abstain"
            "ed\":0,\"novel\":4,\"coverage\":1,\"degraded\":false,\"last_cl"
            "ass\":\"memory\",\"per_class\":{\"idle\":9,\"io\":7,\"cpu\":7,"
            "\"network\":3,\"memory\":8}},{\"node\":\"10.0.0.8\",\"samples"
            "\":45,\"abstained\":0,\"novel\":2,\"coverage\":1,\"degraded\":"
            "false,\"last_class\":\"memory\",\"per_class\":{\"idle\":8,\"io"
            "\":13,\"cpu\":8,\"network\":7,\"memory\":9}},{\"node\":\"10.0."
            "0.9\",\"samples\":42,\"abstained\":0,\"novel\":4,\"coverage\":"
            "1,\"degraded\":false,\"last_class\":\"network\",\"per_class\":"
            "{\"idle\":6,\"io\":6,\"cpu\":12,\"network\":10,\"memory\":8}}]"
            ",\"other\":{\"node\":\"other\",\"samples\":294,\"abstained\":0"
            ",\"novel\":33,\"coverage\":1,\"degraded\":false,\"last_class\""
            ":\"io\",\"per_class\":{\"idle\":51,\"io\":58,\"cpu\":64,\"netw"
            "ork\":64,\"memory\":57}}}");
  EXPECT_EQ(health.drift_json(),
            "{\"reference_ready\":true,\"samples\":900,\"events\":2,\"windo"
            "w\":128,\"reference_window\":256,\"fire_threshold\":0.25,\"cle"
            "ar_threshold\":0.1,\"components\":[{\"component\":0,\"score\":"
            "8.25338,\"drifting\":true},{\"component\":1,\"score\":0.088730"
            "5,\"drifting\":false}]}");
}

TEST(JsonPins, ModelHealthDriftJsonWithServedWindow) {
  // serve --drift-window=64, as the CI serve smoke runs it.
  obs::ModelHealth health(core::make_health_options(64));
  EXPECT_EQ(seeded_health(health).drift_json(),
            "{\"reference_ready\":true,\"samples\":900,\"events\":4,\"windo"
            "w\":64,\"reference_window\":128,\"fire_threshold\":0.25,\"clea"
            "r_threshold\":0.1,\"components\":[{\"component\":0,\"score\":8"
            ".25369,\"drifting\":true},{\"component\":1,\"score\":0.189842,"
            "\"drifting\":true}]}");
}

TEST(JsonPins, SloTrackerToJson) {
  obs::SloTracker slo;
  linalg::Rng rng(41);
  std::int64_t t = 1000;
  const auto record_until = [&](std::int64_t end) {
    for (; t < end; t += 3) {
      // Freshness degrades for ten minutes from t = 3000.
      const bool slow = t >= 3000 && t < 3600 && rng.uniform() < 0.2;
      slo.record_freshness(slow ? 6.0 + rng.uniform() : rng.uniform(), t);
      slo.record_availability(rng.uniform() >= 0.004, t);
    }
  };
  record_until(3500);
  EXPECT_EQ(slo.to_json(3500),
            "{\"healthy\":false,\"now_s\":3500,\"freshness_threshold_s\":5,"
            "\"freshness\":{\"objective\":0.99,\"burning\":true,\"short\":{"
            "\"window_s\":300,\"good\":83,\"bad\":17,\"error_rate\":0.17,\""
            "burn_rate\":17},\"long\":{\"window_s\":3600,\"good\":798,\"bad"
            "\":36,\"error_rate\":0.0431655,\"burn_rate\":4.31655}},\"avail"
            "ability\":{\"objective\":0.99,\"burning\":false,\"short\":{\"w"
            "indow_s\":300,\"good\":100,\"bad\":0,\"error_rate\":0,\"burn_r"
            "ate\":0},\"long\":{\"window_s\":3600,\"good\":832,\"bad\":2,\""
            "error_rate\":0.00239808,\"burn_rate\":0.239808}}}\n");
  record_until(5000);
  EXPECT_EQ(slo.to_json(4999),
            "{\"healthy\":true,\"now_s\":4999,\"freshness_threshold_s\":5,"
            "\"freshness\":{\"objective\":0.99,\"burning\":false,\"short\":"
            "{\"window_s\":300,\"good\":100,\"bad\":0,\"error_rate\":0,\"bu"
            "rn_rate\":0},\"long\":{\"window_s\":3600,\"good\":1158,\"bad\""
            ":42,\"error_rate\":0.035,\"burn_rate\":3.5}},\"availability\":"
            "{\"objective\":0.99,\"burning\":false,\"short\":{\"window_s\":"
            "300,\"good\":100,\"bad\":0,\"error_rate\":0,\"burn_rate\":0},"
            "\"long\":{\"window_s\":3600,\"good\":1195,\"bad\":5,\"error_ra"
            "te\":0.00416667,\"burn_rate\":0.416667}}}\n");
  EXPECT_EQ(slo.to_json(9000),
            "{\"healthy\":true,\"now_s\":9000,\"freshness_threshold_s\":5,"
            "\"freshness\":{\"objective\":0.99,\"burning\":false,\"short\":"
            "{\"window_s\":300,\"good\":0,\"bad\":0,\"error_rate\":0,\"burn"
            "_rate\":0},\"long\":{\"window_s\":3600,\"good\":0,\"bad\":0,\""
            "error_rate\":0,\"burn_rate\":0}},\"availability\":{\"objective"
            "\":0.99,\"burning\":false,\"short\":{\"window_s\":300,\"good\""
            ":0,\"bad\":0,\"error_rate\":0,\"burn_rate\":0},\"long\":{\"win"
            "dow_s\":3600,\"good\":0,\"bad\":0,\"error_rate\":0,\"burn_rate"
            "\":0}}}\n");
}

}  // namespace
}  // namespace appclass
