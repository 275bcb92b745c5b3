#include "core/robustness.hpp"

#include <map>
#include <sstream>

#include "common/assert.hpp"
#include "metrics/quality.hpp"
#include "monitor/fault_injection.hpp"
#include "monitor/harness.hpp"
#include "obs/log.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace appclass::core {

namespace {

constexpr std::array<FaultKind, 7> kAllKinds = {
    FaultKind::kDrop,      FaultKind::kBlackout, FaultKind::kCorrupt,
    FaultKind::kDuplicate, FaultKind::kReplay,   FaultKind::kMetricDropout,
    FaultKind::kDropAndCorrupt,
};

/// Runs one canonical workload on a fresh testbed and records the target
/// VM's full announcement stream. The factory receives the testbed so
/// network workloads can name their peer VM.
template <typename ModelFactory>
RecordedRun record_run(const std::string& workload, ApplicationClass expected,
                       std::uint64_t seed, ModelFactory make_model) {
  sim::TestbedOptions opts;
  opts.seed = seed;
  opts.four_vms = false;
  sim::Testbed tb = sim::make_testbed(opts);
  monitor::ClusterMonitor mon(*tb.engine);

  RecordedRun run;
  run.workload = workload;
  run.expected = expected;
  run.node_ip = tb.engine->vm(tb.vm1).spec().ip;
  const monitor::SubscriptionId sub =
      mon.bus().subscribe([&](const metrics::Snapshot& s) {
        if (s.node_ip == run.node_ip) run.announcements.push_back(s);
      });

  std::unique_ptr<sim::WorkloadModel> model = make_model(tb);
  APPCLASS_EXPECTS(model != nullptr);

  const sim::InstanceId id = tb.engine->submit(tb.vm1, std::move(model));
  const sim::SimTime deadline = tb.engine->now() + 200'000;
  while (tb.engine->instance(id).state != sim::InstanceState::kFinished &&
         tb.engine->now() < deadline)
    tb.engine->step();
  mon.bus().unsubscribe(sub);
  APPCLASS_ENSURES(tb.engine->instance(id).state ==
                   sim::InstanceState::kFinished);
  APPCLASS_ENSURES(!run.announcements.empty());

  // Clean per-metric means: the sanitizer's fallback imputation values.
  for (const auto& s : run.announcements)
    for (std::size_t i = 0; i < metrics::kMetricCount; ++i)
      run.metric_means[i] += s.values[i];
  for (double& m : run.metric_means)
    m /= static_cast<double>(run.announcements.size());
  return run;
}

monitor::FaultOptions fault_options_for(FaultKind kind, double rate) {
  monitor::FaultOptions opts;
  switch (kind) {
    case FaultKind::kDrop:
      opts.drop_probability = rate;
      break;
    case FaultKind::kBlackout:
      opts.blackout_probability = rate;
      opts.blackout_s = 30;
      break;
    case FaultKind::kCorrupt:
      opts.corruption_probability = rate;
      opts.corruption_metrics = 2;
      break;
    case FaultKind::kDuplicate:
      opts.duplicate_probability = rate;
      break;
    case FaultKind::kReplay:
      opts.replay_probability = rate;
      break;
    case FaultKind::kMetricDropout:
      opts.metric_dropout_probability = rate;
      break;
    case FaultKind::kDropAndCorrupt:
      opts.drop_probability = rate;
      opts.corruption_probability = rate / 10.0;
      opts.corruption_metrics = 2;
      break;
  }
  return opts;
}

}  // namespace

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReplay: return "replay";
    case FaultKind::kMetricDropout: return "metric_dropout";
    case FaultKind::kDropAndCorrupt: return "drop+corrupt";
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_string(
    std::string_view name) noexcept {
  for (const FaultKind kind : kAllKinds)
    if (to_string(kind) == name) return kind;
  return std::nullopt;
}

std::span<const FaultKind> all_fault_kinds() noexcept { return kAllKinds; }

std::vector<RecordedRun> record_canonical_runs(const ChaosOptions& options) {
  // The paper's five canonical per-class workloads, with a seed distinct
  // from the training runs so the curve scores generalization, not recall.
  std::vector<RecordedRun> runs;
  runs.reserve(kClassCount);
  runs.push_back(record_run("idle", ApplicationClass::kIdle,
                            options.run_seed + 0,
                            [](sim::Testbed&) { return workloads::make_idle(600.0); }));
  runs.push_back(record_run("postmark", ApplicationClass::kIo,
                            options.run_seed + 1,
                            [](sim::Testbed&) { return workloads::make_postmark(false); }));
  runs.push_back(record_run(
      "specseis_small", ApplicationClass::kCpu, options.run_seed + 2,
      [](sim::Testbed&) {
        return workloads::make_specseis(workloads::SeisDataSize::kSmall);
      }));
  runs.push_back(record_run(
      "ettcp", ApplicationClass::kNetwork, options.run_seed + 3,
      [](sim::Testbed& tb) {
        return workloads::make_ettcp(static_cast<int>(tb.vm4));
      }));
  runs.push_back(record_run("pagebench", ApplicationClass::kMemory,
                            options.run_seed + 4,
                            [](sim::Testbed&) { return workloads::make_pagebench(); }));
  return runs;
}

ChaosCell run_chaos_cell(const ClassificationPipeline& pipeline,
                         const RecordedRun& run, FaultKind kind, double rate,
                         const ChaosOptions& options) {
  APPCLASS_EXPECTS(pipeline.trained());
  APPCLASS_EXPECTS(rate >= 0.0 && rate <= 1.0);
  const int d = options.sampling_interval_s;

  ChaosCell cell;
  cell.workload = run.workload;
  cell.expected = run.expected;
  cell.kind = kind;
  cell.rate = rate;
  cell.sanitized = options.sanitize;

  // Clean baseline: labels of the undisturbed grid samples.
  metrics::DataPool clean_pool(run.node_ip);
  for (const auto& s : run.announcements)
    if (s.time % d == 0) clean_pool.add(s);
  APPCLASS_EXPECTS(!clean_pool.empty());
  cell.clean_samples = clean_pool.size();
  const ClassificationResult clean = pipeline.classify(clean_pool);
  std::map<metrics::SimTime, ApplicationClass> clean_labels;
  for (std::size_t i = 0; i < clean_pool.size(); ++i)
    clean_labels[clean_pool[i].time] = clean.class_vector[i];

  // Degraded path: recorded stream -> faulty channel -> sanitizer -> pool.
  monitor::MetricBus source, degraded;
  monitor::FaultyChannel channel(
      source, degraded, fault_options_for(kind, rate),
      linalg::derive_seed(options.seed,
                          static_cast<std::uint64_t>(kind) * 1000003 +
                              static_cast<std::uint64_t>(rate * 1.0e6)));
  metrics::SnapshotSanitizer sanitizer;
  sanitizer.set_fallback(run.metric_means);

  metrics::DataPool degraded_pool(run.node_ip);
  const monitor::SubscriptionId sub =
      degraded.subscribe([&](const metrics::Snapshot& s) {
        metrics::Snapshot cleaned = s;
        if (options.sanitize) {
          const metrics::SanitizeResult r = sanitizer.sanitize(s);
          if (!r.ok()) return;
          cleaned = r.snapshot;
        }
        if (cleaned.time % d == 0) degraded_pool.add(cleaned);
      });
  for (const auto& s : run.announcements) source.announce(s);
  degraded.unsubscribe(sub);

  cell.survived_samples = degraded_pool.size();
  cell.rejected = sanitizer.stats().rejected();
  cell.imputed_values = sanitizer.stats().imputed_values;
  if (degraded_pool.empty()) {
    cell.accuracy = 0.0;
    cell.majority_ok = false;
    return cell;
  }

  const ClassificationResult result = pipeline.classify(degraded_pool);
  std::size_t scored = 0, agreed = 0;
  for (std::size_t i = 0; i < degraded_pool.size(); ++i) {
    const auto it = clean_labels.find(degraded_pool[i].time);
    if (it == clean_labels.end()) continue;
    ++scored;
    if (result.class_vector[i] == it->second) ++agreed;
  }
  cell.accuracy = scored == 0 ? 0.0
                              : static_cast<double>(agreed) /
                                    static_cast<double>(scored);
  cell.majority = result.application_class;
  cell.majority_ok = result.application_class == clean.application_class;
  return cell;
}

std::vector<ChaosCell> run_chaos_sweep(const ClassificationPipeline& pipeline,
                                       const std::vector<RecordedRun>& runs,
                                       const ChaosOptions& options) {
  const std::vector<FaultKind> kinds =
      options.kinds.empty()
          ? std::vector<FaultKind>(kAllKinds.begin(), kAllKinds.end())
          : options.kinds;
  std::vector<ChaosCell> cells;
  cells.reserve(runs.size() * kinds.size() * options.rates.size());
  for (const auto& run : runs)
    for (const FaultKind kind : kinds)
      for (const double rate : options.rates)
        cells.push_back(run_chaos_cell(pipeline, run, kind, rate, options));
  APPCLASS_LOG_INFO("chaos.sweep", {"cells", cells.size()},
                    {"workloads", runs.size()},
                    {"sanitize", options.sanitize});
  return cells;
}

std::string chaos_csv(const std::vector<ChaosCell>& cells) {
  std::ostringstream os;
  os << "workload,expected,fault_kind,rate,sanitized,clean_samples,"
        "survived_samples,rejected,imputed_values,accuracy,majority,"
        "majority_ok\n";
  os.precision(6);
  for (const auto& c : cells) {
    os << c.workload << ',' << to_string(c.expected) << ','
       << to_string(c.kind) << ',' << c.rate << ',' << (c.sanitized ? 1 : 0)
       << ',' << c.clean_samples << ',' << c.survived_samples << ','
       << c.rejected << ',' << c.imputed_values << ',' << c.accuracy << ','
       << to_string(c.majority) << ',' << (c.majority_ok ? 1 : 0) << '\n';
  }
  return os.str();
}

}  // namespace appclass::core
