// Serving-API tests: per-mode flag parsing of the unified ServeOptions
// surface, deterministic composition text, and the shard-merge identity
// (merge of disjoint per-shard texts == the single-process text).
#include "dist/serving.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "core_test_util.hpp"

namespace appclass::serving {
namespace {

core::ClassificationPipeline trained_pipeline() {
  core::ClassificationPipeline pipeline;
  pipeline.train(core::testing::synthetic_training());
  return pipeline;
}

/// Feeds `count` grid-aligned snapshots of one class into a classifier
/// under `node_ip` (per-node streams are independent, so feeding nodes
/// in any interleave yields the same per-node state).
void feed_node(core::OnlineClassifier& online,
               const core::ClassificationPipeline& pipeline,
               const std::string& node_ip, core::ApplicationClass cls,
               std::size_t count, std::uint64_t seed) {
  linalg::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    metrics::Snapshot s = core::testing::synthetic_snapshot(
        cls, rng, static_cast<metrics::SimTime>(5 * (i + 1)));
    s.node_ip = node_ip;
    online.ingest(s, pipeline.classify(s));
  }
}

TEST(DistServing, ParseDefaultsToSingleMode) {
  const ParseResult result = parse_serve_args("model.txt", {});
  ASSERT_TRUE(result.options.has_value());
  EXPECT_EQ(result.options->mode, ServeMode::kSingle);
  EXPECT_EQ(result.options->model_path, "model.txt");
  EXPECT_EQ(result.options->port, 9464);
  EXPECT_TRUE(result.options->workers.empty());
}

TEST(DistServing, ParseWorkerAndCoordinatorModes) {
  const ParseResult worker = parse_serve_args(
      "m", {"--mode=worker", "--ingest-port=9301", "--state-dir=/tmp/w0"});
  ASSERT_TRUE(worker.options.has_value());
  EXPECT_EQ(worker.options->mode, ServeMode::kWorker);
  EXPECT_EQ(worker.options->ingest_port, 9301);
  EXPECT_EQ(worker.options->state_dir, "/tmp/w0");

  const ParseResult coord = parse_serve_args(
      "m", {"--mode=coordinator", "--workers=9201:9301,9202:9302",
            "--cycles=4"});
  ASSERT_TRUE(coord.options.has_value());
  EXPECT_EQ(coord.options->mode, ServeMode::kCoordinator);
  ASSERT_EQ(coord.options->workers.size(), 2u);
  EXPECT_EQ(coord.options->workers[0].scrape_port, 9201);
  EXPECT_EQ(coord.options->workers[0].ingest_port, 9301);
  EXPECT_EQ(coord.options->workers[1].scrape_port, 9202);
  EXPECT_EQ(coord.options->workers[1].ingest_port, 9302);
  EXPECT_EQ(coord.options->cycles, 4);
}

TEST(DistServing, ParseRejectsInvalidModeCombinations) {
  // Usage errors return empty options with exit code 2, never a silent
  // ignore of a flag that does not apply to the mode.
  const std::vector<std::vector<std::string>> invalid = {
      {"--mode=cluster"},                          // unknown mode
      {"--workers=9201:9301"},                     // workers w/o coordinator
      {"--mode=worker", "--workers=9201:9301"},    // workers on a worker
      {"--mode=worker", "--cycles=3"},             // cycles on a worker
      {"--mode=coordinator"},                      // coordinator w/o workers
      {"--mode=coordinator", "--workers=9201:9301",
       "--state-dir=/tmp/x"},                      // stateful coordinator
      {"--ingest-port=9301"},                      // ingest port on single
      {"--workers=9201"},                          // malformed endpoint
      {"--mode=coordinator", "--workers=9201:banana"},
      {"--mode=worker", "--ingest-port=99999"},    // port out of range
      {"--cycles=-1"},
  };
  for (const auto& flags : invalid) {
    const ParseResult result = parse_serve_args("m", flags);
    EXPECT_FALSE(result.options.has_value()) << flags.front();
    EXPECT_EQ(result.exit_code, 2) << flags.front();
  }
}

TEST(DistServing, ParseRejectsNonDigitNumericFlags) {
  // Numeric flag values are digits-only: strtoll-style acceptance of
  // leading whitespace, signs, or trailing garbage ("--port= 80",
  // "--port=+80", "--cycles=1e3") silently parsed the wrong number —
  // every value here is a non-negative count/port, so reject outright.
  const std::vector<std::vector<std::string>> invalid = {
      {"--port= 80"},
      {"--port=+80"},
      {"--port=-0"},
      {"--port=80 "},
      {"--duration=1e3"},
      {"--cycles=0x4"},
      {"--max-backlog=  7"},
      {"--sync-every=+1"},
      {"--checkpoint-every=2\n"},
      {"--drift-window=64kb"},
      {"--port=99999999999999999999"},  // longer than any valid value
  };
  for (const auto& flags : invalid) {
    const ParseResult result = parse_serve_args("m", flags);
    EXPECT_FALSE(result.options.has_value()) << "'" << flags.front() << "'";
    EXPECT_EQ(result.exit_code, 2) << "'" << flags.front() << "'";
  }
  // Plain digit strings still parse.
  const ParseResult ok = parse_serve_args("m", {"--port=8080"});
  ASSERT_TRUE(ok.options.has_value());
  EXPECT_EQ(ok.options->port, 8080);
}

/// Parses `flags` and returns what the parser printed to stderr; the
/// parse must fail with usage exit code 2.
std::string rejection_text(const std::vector<std::string>& flags) {
  ::testing::internal::CaptureStderr();
  const ParseResult result = parse_serve_args("m", flags);
  const std::string text = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(result.options.has_value()) << flags.back();
  EXPECT_EQ(result.exit_code, 2) << flags.back();
  return text;
}

TEST(DistServing, ParseErrorTextIsPinnedForEveryNumericFlag) {
  // One out-of-range value and five malformed ones per numeric flag, each
  // with the exact usage error it prints. Values are checked before per-mode
  // validity, so coordinator-only flags report their value error in any
  // mode. 19 digits is past the parser's length cap.
  constexpr const char* kTooLong = "9999999999999999999";
  const struct {
    const char* flag;
    const char* out_of_range;
    const char* message;  // printf format of the value error
  } cases[] = {
      {"--drift-window=", kTooLong, "serve: bad drift window '%s'\n"},
      {"--port=", "65536", "serve: bad port '%s'\n"},
      {"--ingest-port=", "65536", "serve: bad ingest port '%s'\n"},
      {"--duration=", kTooLong, "serve: bad duration '%s'\n"},
      {"--cycles=", kTooLong, "serve: bad cycle count '%s'\n"},
      {"--sync-every=", "0", "serve: bad sync interval '%s'\n"},
      {"--checkpoint-every=", "0", "serve: bad checkpoint interval '%s'\n"},
      {"--max-backlog=", kTooLong, "serve: bad backlog bound '%s'\n"},
      {"--fleet-scrape-every=", "0", "serve: bad fleet scrape period '%s'\n"},
      {"--slo-freshness-ms=", "0", "serve: bad freshness threshold '%s'\n"},
      {"--slo-window=", "86401",
       "serve: bad SLO window '%s' (seconds, <= 1d)\n"},
      {"--slo-objective=", "100",
       "serve: bad SLO objective '%s' (percent, 1-99)\n"},
  };
  for (const auto& c : cases) {
    for (const std::string value :
         {c.out_of_range, "7x", "+7", " 7", "-1", ""}) {
      char expected[128];
      std::snprintf(expected, sizeof expected, c.message, value.c_str());
      EXPECT_EQ(rejection_text({std::string(c.flag) + value}), expected)
          << c.flag << value;
    }
  }
  // Both ends of the two two-sided ranges are enforced.
  EXPECT_EQ(rejection_text({"--slo-window=0"}),
            "serve: bad SLO window '0' (seconds, <= 1d)\n");
  EXPECT_EQ(rejection_text({"--slo-objective=0"}),
            "serve: bad SLO objective '0' (percent, 1-99)\n");
}

TEST(DistServing, ParseErrorTextIsPinnedForModeAndListFlags) {
  const struct {
    std::vector<std::string> flags;
    const char* message;
  } cases[] = {
      {{"--mode=cluster"},
       "serve: bad mode 'cluster' (expected single, worker, coordinator)\n"},
      {{"--workers=9201"},
       "serve: bad worker '9201' (expected SCRAPE_PORT:INGEST_PORT)\n"},
      {{"--mode=coordinator", "--workers=9201:0"},
       "serve: bad worker '9201:0' (expected SCRAPE_PORT:INGEST_PORT)\n"},
      {{"--workers="}, "serve: --workers needs at least one entry\n"},
      {{"--state-dir="}, "serve: --state-dir needs a path\n"},
      {{"--fsync=sometimes"},
       "serve: bad fsync policy 'sometimes' (expected always, interval, "
       "never)\n"},
      {{"--frobnicate"}, "serve: unknown flag '--frobnicate'\n"},
      {{"--supervised=1"}, "serve: unknown flag '--supervised=1'\n"},
      {{"--workers=9201:9301"},
       "serve: --workers only applies to --mode=coordinator\n"},
      {{"--mode=worker", "--workers=9201:9301"},
       "serve: --workers only applies to --mode=coordinator\n"},
      {{"--ingest-port=9301"},
       "serve: --ingest-port only applies to --mode=worker\n"},
      {{"--mode=coordinator", "--workers=9201:9301", "--ingest-port=9301"},
       "serve: --ingest-port only applies to --mode=worker\n"},
      {{"--mode=worker", "--cycles=3"},
       "serve: --cycles applies to the replaying modes (single, "
       "coordinator), not worker\n"},
      {{"--fleet-scrape-every=500"},
       "serve: --fleet-scrape-every/--slo-* only apply to "
       "--mode=coordinator\n"},
      {{"--mode=worker", "--slo-window=8"},
       "serve: --fleet-scrape-every/--slo-* only apply to "
       "--mode=coordinator\n"},
      {{"--slo-freshness-ms=250"},
       "serve: --fleet-scrape-every/--slo-* only apply to "
       "--mode=coordinator\n"},
      {{"--slo-objective=90"},
       "serve: --fleet-scrape-every/--slo-* only apply to "
       "--mode=coordinator\n"},
      {{"--mode=coordinator"},
       "serve: --mode=coordinator requires --workers\n"},
      {{"--mode=coordinator", "--workers=9201:9301", "--state-dir=/tmp/x"},
       "serve: the coordinator is stateless; --state-dir belongs on the "
       "workers\n"},
  };
  for (const auto& c : cases)
    EXPECT_EQ(rejection_text(c.flags), c.message) << c.flags.back();

  // A value that parses prints nothing, and the bounds are inclusive.
  ::testing::internal::CaptureStderr();
  const ParseResult ok = parse_serve_args(
      "m", {"--mode=coordinator", "--workers=1:65535", "--port=65535",
            "--slo-window=86400", "--slo-objective=99",
            "--fleet-scrape-every=1", "--slo-freshness-ms=1",
            "--drift-window=0", "--max-backlog=0", "--duration=0",
            "--cycles=0"});
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ASSERT_TRUE(ok.options.has_value());
  EXPECT_EQ(ok.options->slo_window_s, 86400);
  EXPECT_EQ(ok.options->slo_objective_pct, 99);
  EXPECT_EQ(ok.options->fleet_scrape_every_ms, 1);
  EXPECT_EQ(ok.options->slo_freshness_ms, 1);
}

TEST(DistServing, ParseKeepsLegacySingleModeFlags) {
  const ParseResult result = parse_serve_args(
      "m", {"--port=9001", "--duration=3", "--drift-window=64",
            "--state-dir=/tmp/s", "--fsync=interval", "--sync-every=8",
            "--checkpoint-every=2", "--max-backlog=100", "--supervised"});
  ASSERT_TRUE(result.options.has_value());
  EXPECT_EQ(result.options->port, 9001);
  EXPECT_EQ(result.options->duration_s, 3);
  EXPECT_EQ(result.options->drift_window, 64);
  EXPECT_EQ(result.options->wal.fsync, persist::FsyncPolicy::kInterval);
  EXPECT_EQ(result.options->wal.sync_every, 8u);
  EXPECT_EQ(result.options->checkpoint_every, 2);
  EXPECT_EQ(result.options->max_backlog, 100);
  EXPECT_TRUE(result.options->supervised);
}

TEST(DistServing, ReplayNodeIpIsPerRun) {
  EXPECT_EQ(replay_node_ip(0), "10.0.0.1");
  EXPECT_EQ(replay_node_ip(3), "10.0.3.1");
}

TEST(DistServing, CompositionTextIsDeterministic) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier a(pipeline), b(pipeline);
  for (auto* online : {&a, &b}) {
    feed_node(*online, pipeline, "10.0.0.1", core::ApplicationClass::kCpu,
              20, 11);
    feed_node(*online, pipeline, "10.0.1.1", core::ApplicationClass::kIo,
              20, 12);
  }
  const std::string text = composition_text(a);
  EXPECT_EQ(text, composition_text(b));
  EXPECT_EQ(text.rfind("appclass-composition v1\n", 0), 0u);
  EXPECT_NE(text.find("node 10.0.0.1 "), std::string::npos);
  EXPECT_NE(text.find("node 10.0.1.1 "), std::string::npos);
}

TEST(DistServing, MergeOfDisjointShardsEqualsTheCombinedText) {
  // The identity the coordinator's /composition rests on: per-node state
  // is independent, so two shard classifiers covering disjoint node sets
  // merge into exactly the text one classifier over all nodes renders.
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier shard0(pipeline), shard1(pipeline),
      combined(pipeline);
  const struct {
    const char* ip;
    core::ApplicationClass cls;
    std::uint64_t seed;
  } nodes[] = {
      {"10.0.0.1", core::ApplicationClass::kCpu, 21},
      {"10.0.1.1", core::ApplicationClass::kIo, 22},
      {"10.0.2.1", core::ApplicationClass::kNetwork, 23},
      {"10.0.3.1", core::ApplicationClass::kMemory, 24},
      {"10.0.4.1", core::ApplicationClass::kIdle, 25},
  };
  for (std::size_t i = 0; i < std::size(nodes); ++i) {
    core::OnlineClassifier& shard = (i % 2 == 0) ? shard0 : shard1;
    feed_node(shard, pipeline, nodes[i].ip, nodes[i].cls, 15,
              nodes[i].seed);
    feed_node(combined, pipeline, nodes[i].ip, nodes[i].cls, 15,
              nodes[i].seed);
  }
  EXPECT_EQ(
      merge_composition_texts({composition_text(shard0),
                               composition_text(shard1)}),
      composition_text(combined));
  // Merge order cannot matter either.
  EXPECT_EQ(
      merge_composition_texts({composition_text(shard1),
                               composition_text(shard0)}),
      composition_text(combined));
}

TEST(DistServing, MergeSumsTheCounters) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier a(pipeline), b(pipeline);
  feed_node(a, pipeline, "10.0.0.1", core::ApplicationClass::kCpu, 10, 31);
  feed_node(b, pipeline, "10.0.1.1", core::ApplicationClass::kIo, 7, 32);
  const std::string merged =
      merge_composition_texts({composition_text(a), composition_text(b)});
  const std::size_t expected =
      a.classified_count() + b.classified_count();
  EXPECT_NE(
      merged.find("classified " + std::to_string(expected) + "\n"),
      std::string::npos)
      << merged;
}

TEST(DistServing, MergeRejectsDuplicateNodesAndGarbage) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier a(pipeline);
  feed_node(a, pipeline, "10.0.0.1", core::ApplicationClass::kCpu, 10, 41);
  const std::string text = composition_text(a);
  // The same node reported by two shards means the shard map and fleet
  // disagree — merging would double-count, so it must throw.
  EXPECT_THROW(merge_composition_texts({text, text}), std::runtime_error);
  EXPECT_THROW(merge_composition_texts({"not a composition\n"}),
               std::runtime_error);
  EXPECT_THROW(merge_composition_texts({"appclass-composition v1\n"
                                        "classified x\n"
                                        "abstained 0\n"}),
               std::runtime_error);
}

TEST(DistServing, MergeOfEmptyShardsIsAnEmptyComposition) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier empty(pipeline);
  EXPECT_EQ(merge_composition_texts(
                {composition_text(empty), composition_text(empty)}),
            composition_text(empty));
}

}  // namespace
}  // namespace appclass::serving
