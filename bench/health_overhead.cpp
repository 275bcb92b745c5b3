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
// drift_overhead = 1 + (drift observe() cost per sample) / (baseline
// classify cost per sample). The drift cost is measured directly — a
// tight loop feeding the detector the stream's own projected rows —
// because estimating a ~1% delta as the ratio of two large noisy
// end-to-end totals amplifies machine noise ~100x; the direct loop's
// minimum over reps is stable to well under the 2% gate. The labels of
// all three passes must be bit-identical — the health layer is
// observational by contract, and this bench is the guard on that
// contract.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/online.hpp"
#include "core/robustness.hpp"
#include "core/trainer.hpp"
#include "obs/health.hpp"

namespace {

using namespace appclass;
using Clock = std::chrono::steady_clock;

double time_run(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Row {
  std::string mode;
  std::size_t samples = 0;
  double seconds = 0.0;
  std::uint64_t drift_events = 0;
  double per_sec() const { return static_cast<double>(samples) / seconds; }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_health.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strncmp(argv[i], "--out=", 6)) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: health_overhead [--quick] [--out=file.json]\n");
      return 2;
    }
  }
  bench::dump_registry_at_exit();

  core::PipelineOptions pipeline_options;
  pipeline_options.novelty_threshold = 2.5;
  const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline(pipeline_options);
  const auto runs = core::record_canonical_runs();

  // One long grid-aligned stream cycling all five canonical workloads
  // across five node IPs — per-node scorecards, per-class histograms,
  // and the drift window all stay busy.
  const std::size_t total = quick ? 50000 : 200000;
  std::vector<metrics::Snapshot> stream;
  stream.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto& run = runs[i % runs.size()];
    metrics::Snapshot snapshot =
        run.announcements[(i / runs.size()) % run.announcements.size()];
    // Each node sees a dense grid sequence (t = 0, 5, 10, ...): full
    // window coverage, so the bench measures the voting path, not the
    // abstention fast-path.
    snapshot.time = static_cast<metrics::SimTime>(i / runs.size()) * 5;
    snapshot.node_ip = "10.0.0." + std::to_string(1 + i % runs.size());
    stream.push_back(snapshot);
  }

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
  const auto run_mode = [&](const Mode& mode,
                            std::vector<core::ApplicationClass>& labels) {
    labels.clear();
    core::OnlineClassifier classifier(pipeline);
    if (mode.health) classifier.attach_health(mode.health);
    return time_run([&] {
      for (const auto& snapshot : stream)
        labels.push_back(*classifier.observe(snapshot));
    });
  };

  // Reps are interleaved across modes (b, h, d, b, h, d, ...) so a
  // machine-wide slowdown penalizes every mode equally instead of
  // whichever happened to run last; min-of-reps then discards the noisy
  // passes. The untimed warm-up pass eats the cold-cache cost.
  constexpr int kReps = 9;
  std::vector<core::ApplicationClass> mode_labels[3];
  for (auto& labels : mode_labels) labels.reserve(stream.size());
  (void)run_mode(modes[0], mode_labels[0]);  // warm-up, discarded

  std::vector<Row> rows(std::size_t{3});
  double round_seconds[3][kReps];
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t m = 0; m < 3; ++m) {
      const double seconds = run_mode(modes[m], mode_labels[m]);
      round_seconds[m][rep] = seconds;
      Row& row = rows[m];
      row.mode = modes[m].name;
      row.samples = stream.size();
      row.seconds = rep == 0 ? seconds : std::min(row.seconds, seconds);
    }
  }
  rows[2].drift_events = health_on.drift_events();

  // The gated statistic is the ratio of per-mode minima: noise on a
  // shared machine is strictly additive, so each mode's fastest pass is
  // its closest observation of the true cost.
  const auto min_ratio = [&](int num, int den) {
    double a = round_seconds[num][0], b = round_seconds[den][0];
    for (int rep = 1; rep < kReps; ++rep) {
      a = std::min(a, round_seconds[num][rep]);
      b = std::min(b, round_seconds[den][rep]);
    }
    return a / b;
  };

  // Direct drift-detector cost: replay the stream's own PCA coordinates
  // through a detector in a tight loop. Same work per sample as the
  // attached detector does inside record().
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
  // time against scheduler noise — so each timed rep replays the rows
  // several times and reports per-pass seconds. Each drift rep is paired
  // with an adjacent baseline-classify rep: the per-rep ratio cancels
  // slow machine-state drift (frequency scaling) that would skew a
  // ratio of measurements taken in different time windows, and the
  // median over reps discards the fast-noise outliers.
  constexpr int kDriftPasses = 8;
  double drift_seconds = 0.0;
  std::vector<double> pair_ratios(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    obs::DriftDetector detector(core::make_health_options().drift_window);
    const double seconds = time_run([&] {
      for (int pass = 0; pass < kDriftPasses; ++pass)
        for (std::size_t i = 0; i < stream.size(); ++i)
          detector.observe(std::span<const double>(
              projected_rows.data() + i * components, components));
    }) / kDriftPasses;
    drift_seconds = rep == 0 ? seconds : std::min(drift_seconds, seconds);
    const double classify_seconds = run_mode(modes[0], mode_labels[0]);
    pair_ratios[static_cast<std::size_t>(rep)] = seconds / classify_seconds;
  }
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double drift_fraction = pair_ratios[kReps / 2];

  const auto& base_labels = mode_labels[0];
  const auto& health_labels = mode_labels[1];
  const auto& drift_labels = mode_labels[2];

  // The health layer is observational by contract: every pass classifies
  // the stream identically, bit for bit.
  APPCLASS_ENSURES(health_labels == base_labels);
  APPCLASS_ENSURES(drift_labels == base_labels);

  std::printf("%-14s %10s %10s %14s %8s\n", "mode", "samples", "seconds",
              "snapshots/sec", "events");
  for (const auto& row : rows)
    std::printf("%-14s %10zu %10.4f %14.0f %8llu\n", row.mode.c_str(),
                row.samples, row.seconds, row.per_sec(),
                static_cast<unsigned long long>(row.drift_events));

  const double health_overhead = min_ratio(2, 0);
  const double base_min = [&] {
    double best = round_seconds[0][0];
    for (int rep = 1; rep < kReps; ++rep)
      best = std::min(best, round_seconds[0][rep]);
    return best;
  }();
  const double drift_overhead = 1.0 + drift_fraction;
  std::printf("\nhealth overhead (health_drift/baseline): %.3fx\n",
              health_overhead);
  std::printf("end-to-end drift ratio (health_drift/health): %.3fx\n",
              min_ratio(2, 1));
  std::printf(
      "drift overhead (direct: %.1f ns/sample on %.1f ns/sample classify): "
      "%.4fx\n",
      1e9 * drift_seconds / static_cast<double>(stream.size()),
      1e9 * base_min / static_cast<double>(stream.size()), drift_overhead);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"health_overhead\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"health_overhead\": %.4f,\n", health_overhead);
  std::fprintf(out, "  \"drift_overhead\": %.4f,\n", drift_overhead);
  std::fprintf(out, "  \"bit_identical\": true,\n");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"samples\": %zu, \"seconds\": "
                 "%.6f, \"snapshots_per_sec\": %.1f, \"drift_events\": "
                 "%llu}%s\n",
                 row.mode.c_str(), row.samples, row.seconds, row.per_sec(),
                 static_cast<unsigned long long>(row.drift_events),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
