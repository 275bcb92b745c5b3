// Model-health overhead: cost of the health aggregator and the online
// drift detector on the streaming classification path, written as
// BENCH_health.json for the CI gate (drift_overhead must stay < 1.02).
//
//   health_overhead [--quick] [--out=BENCH_health.json]
//
// Three passes over the identical re-stamped canonical announcement
// stream through an OnlineClassifier:
//
//   baseline      no health aggregator (plain classify path)
//   health        ModelHealth attached, drift feed disabled
//   health_drift  ModelHealth attached, drift detector live
//
// health_overhead = health_drift / baseline (the full layer's cost) and
// drift_overhead = 1 + (drift observe_batch() cost per sample) / (baseline
// classify cost per sample), each the median of per-round paired ratios
// (harness.hpp). The drift cost is measured directly — a tight loop
// feeding the detector the stream's own projected rows — because
// estimating a ~1% delta as the ratio of two large noisy end-to-end
// totals amplifies machine noise ~100x. The labels of all three passes
// must be bit-identical — the health layer is observational by
// contract, and this bench is the guard on that contract.
#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/online.hpp"
#include "core/trainer.hpp"
#include "harness.hpp"
#include "obs/health.hpp"

int main(int argc, char** argv) {
  using namespace appclass;
  const bench::Args args = bench::parse_args(
      argc, argv, "health_overhead", "BENCH_health.json");

  core::PipelineOptions pipeline_options;
  pipeline_options.novelty_threshold = 2.5;
  const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline(pipeline_options);
  // Five nodes cycling the canonical workloads: per-node scorecards,
  // per-class histograms, and the drift window all stay busy, and full
  // window coverage keeps the bench on the voting path, not the
  // abstention fast-path.
  const std::vector<metrics::Snapshot> stream =
      bench::canonical_stream(args.quick ? 50000 : 200000);

  obs::ModelHealthOptions health_options = core::make_health_options();
  health_options.drift_enabled = false;
  obs::ModelHealth health_off(health_options);
  health_options.drift_enabled = true;
  obs::ModelHealth health_on(health_options);

  struct Mode {
    const char* name;
    obs::ModelHealth* health;
  };
  const Mode modes[] = {
      {"baseline", nullptr}, {"health", &health_off},
      {"health_drift", &health_on}};

  // One pass of the stream through a fresh classifier; labels out.
  std::vector<core::ApplicationClass> mode_labels[3];
  for (auto& labels : mode_labels) labels.reserve(stream.size());
  const auto pass = [&](std::size_t m) {
    return [&, m] {
      mode_labels[m].clear();
      core::OnlineClassifier classifier(pipeline);
      if (modes[m].health) classifier.attach_health(modes[m].health);
      for (const auto& snapshot : stream)
        mode_labels[m].push_back(*classifier.observe(snapshot));
    };
  };
  const auto seconds = bench::time_interleaved({pass(0), pass(1), pass(2)});

  // The health layer is observational by contract: every pass classifies
  // the stream identically, bit for bit.
  APPCLASS_ENSURES(mode_labels[1] == mode_labels[0]);
  APPCLASS_ENSURES(mode_labels[2] == mode_labels[0]);

  // Direct drift-detector cost: replay the stream's own PCA coordinates
  // through a detector in a tight loop, through the entry point serving
  // uses — ModelHealth::record() queues rows and feeds observe_batch()
  // kStride samples at a time, and so does this loop.
  std::vector<double> projected_rows;
  std::size_t components = 0;
  for (const auto& snapshot : stream) {
    const core::SnapshotClassification detail =
        pipeline.classify_detailed(snapshot);
    components = detail.projected.size();
    projected_rows.insert(projected_rows.end(), detail.projected.begin(),
                          detail.projected.end());
  }
  // One stream pass through the bare detector is ~1 ms — too short to
  // time against scheduler noise — so each round replays the rows
  // several times. Each round pairs it with a baseline classify pass:
  // the per-round ratio cancels slow machine-state drift (frequency
  // scaling), and the median over rounds discards fast-noise outliers.
  constexpr int kDriftPasses = 8;
  const auto drift = bench::time_interleaved({
      [&] {
        obs::DriftDetector detector(core::make_health_options().drift_window);
        constexpr std::size_t kBatch = obs::DriftDetector::kStride;
        for (int p = 0; p < kDriftPasses; ++p)
          for (std::size_t i = 0; i < stream.size(); i += kBatch)
            detector.observe_batch(
                std::span<const double>(
                    projected_rows.data() + i * components,
                    std::min(kBatch, stream.size() - i) * components),
                components);
      },
      pass(0),
  });

  std::vector<bench::Fields> rows;
  for (std::size_t m = 0; m < 3; ++m)
    rows.push_back(bench::Fields()
                       .text("mode", modes[m].name)
                       .count("samples", stream.size())
                       .timing(seconds[m], "snapshots_per_sec",
                               static_cast<double>(stream.size())));
  rows.back().count("drift_events", health_on.drift_events());
  return bench::write_report(
      args,
      bench::Fields()
          .num("health_overhead", bench::paired_ratio(seconds[2], seconds[0]))
          .num("drift_overhead",
               1.0 + bench::paired_ratio(drift[0], drift[1]) / kDriftPasses)
          .flag("bit_identical", true),
      rows);
}
