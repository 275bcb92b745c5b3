// Robustness quantification: the chaos sweep harness.
//
// Turns "the classifier is robust to monitoring faults" into a number: a
// fault-rate × fault-kind sweep over the five canonical workloads that
// reports, per cell, how many samples survived, what the sanitizer
// rejected/repaired, per-snapshot accuracy against the clean run, and
// whether the majority-vote class flipped. The resulting CSV is the
// regression-testable accuracy-degradation curve behind `appclass_cli
// chaos`, bench/robustness_curve, and the chaos tests.
//
// The harness simulates each canonical run ONCE, records the target VM's
// full announcement stream, and then replays that identical stream through
// a seeded FaultyChannel (+ optional SnapshotSanitizer) per cell — so
// every cell of the curve degrades the same ground truth and differences
// are attributable to the faults alone.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"

namespace appclass::core {

/// One injected failure mode of the monitoring plane.
enum class FaultKind {
  kDrop,           ///< UDP announcement loss
  kBlackout,       ///< whole-node silence for 30 s stretches
  kCorrupt,        ///< NaN/Inf/garbage spikes on random metrics
  kDuplicate,      ///< duplicate delivery
  kReplay,         ///< stale out-of-order replay
  kMetricDropout,  ///< per-sensor dropout (NaN'd individual metrics)
  kDropAndCorrupt, ///< rate drop + rate/10 corruption (the mixed case)
};

std::string_view to_string(FaultKind kind) noexcept;

/// Name -> kind (accepts the to_string spellings); nullopt for unknown.
std::optional<FaultKind> fault_kind_from_string(std::string_view name) noexcept;

/// All sweepable kinds, in presentation order.
std::span<const FaultKind> all_fault_kinds() noexcept;

/// The recorded ground truth of one canonical run.
struct RecordedRun {
  std::string workload;                         ///< catalog name
  ApplicationClass expected = ApplicationClass::kIdle;
  std::string node_ip;                          ///< target VM
  std::vector<metrics::Snapshot> announcements; ///< full 1 Hz stream
  /// Per-metric means of the clean stream (sanitizer fallback values).
  std::array<double, metrics::kMetricCount> metric_means{};
};

struct ChaosOptions {
  /// Fault intensities swept per kind.
  std::vector<double> rates = {0.0, 0.01, 0.05, 0.1, 0.3, 0.5};
  /// Fault kinds swept (empty = all).
  std::vector<FaultKind> kinds;
  /// Run the sanitizer between the faulty channel and the classifier.
  bool sanitize = true;
  /// Base seed for the per-cell fault channels.
  std::uint64_t seed = 99;
  /// Seed for the simulated canonical runs (distinct from training).
  std::uint64_t run_seed = 2026;
  /// Profiler sampling period d.
  int sampling_interval_s = 5;
};

/// One cell of the robustness curve.
struct ChaosCell {
  std::string workload;
  ApplicationClass expected = ApplicationClass::kIdle;
  FaultKind kind = FaultKind::kDrop;
  double rate = 0.0;
  bool sanitized = false;
  std::size_t clean_samples = 0;     ///< grid samples of the clean run
  std::size_t survived_samples = 0;  ///< grid samples reaching the classifier
  std::size_t rejected = 0;          ///< sanitizer rejections (all reasons)
  std::size_t imputed_values = 0;    ///< individual metrics imputed
  /// Fraction of surviving snapshots labelled identically to the clean
  /// run at the same instant (1.0 when nothing survived counts as 0).
  double accuracy = 0.0;
  ApplicationClass majority = ApplicationClass::kIdle;
  bool majority_ok = false;          ///< majority matches the clean majority
};

/// Simulates and records the five canonical workloads (idle, PostMark,
/// SPECseis, Ettcp, Pagebench) once each.
std::vector<RecordedRun> record_canonical_runs(const ChaosOptions& options = {});

/// Replays one recorded run through one fault configuration and scores it.
ChaosCell run_chaos_cell(const ClassificationPipeline& pipeline,
                         const RecordedRun& run, FaultKind kind, double rate,
                         const ChaosOptions& options);

/// The full sweep: every recorded run × kind × rate.
std::vector<ChaosCell> run_chaos_sweep(const ClassificationPipeline& pipeline,
                                       const std::vector<RecordedRun>& runs,
                                       const ChaosOptions& options = {});

/// Renders cells as the robustness-curve CSV (with header row).
std::string chaos_csv(const std::vector<ChaosCell>& cells);

}  // namespace appclass::core
