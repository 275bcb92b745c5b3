#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/assert.hpp"
#include "core/robustness.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace appclass::bench {
namespace {

void dump_registry_now() {
  const char* mode = std::getenv("APPCLASS_BENCH_STATS");
  if (mode && (!std::strcmp(mode, "0") || !std::strcmp(mode, "off")))
    return;
  obs::ExportFormat format = obs::ExportFormat::kTable;
  if (mode && !std::strcmp(mode, "json")) format = obs::ExportFormat::kJson;
  if (mode && !std::strcmp(mode, "prom"))
    format = obs::ExportFormat::kPrometheus;
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  if (snapshot.empty()) return;
  const std::string report = obs::export_as(snapshot, format);
  if (format == obs::ExportFormat::kTable)
    std::fprintf(stderr, "\n== obs metrics registry ==\n");
  std::fwrite(report.data(), 1, report.size(), stderr);
}

struct RegistryDumper {
  RegistryDumper() {
    // Force the registry's construction before registering the handler so
    // it outlives (is destroyed after) anything the handler touches.
    obs::MetricsRegistry::global();
    std::atexit(dump_registry_now);
  }
};

// One per process: every bench binary links bench_util, so every bench
// run ends with its registry snapshot on stderr.
const RegistryDumper g_registry_dumper;

}  // namespace

monitor::ProfiledRun profile_standalone(const std::string& app_name,
                                        double vm1_ram_mb, std::uint64_t seed,
                                        int sampling_interval_s) {
  sim::TestbedOptions opts;
  opts.seed = seed;
  opts.vm1_ram_mb = vm1_ram_mb;
  opts.four_vms = false;
  sim::Testbed tb = sim::make_testbed(opts);
  monitor::ClusterMonitor mon(*tb.engine);
  auto model =
      workloads::make_by_name(app_name, static_cast<int>(tb.vm4));
  APPCLASS_EXPECTS(model != nullptr);
  const sim::InstanceId id = tb.engine->submit(tb.vm1, std::move(model));
  return monitor::profile_instance(*tb.engine, mon, id, sampling_interval_s);
}

const core::ClassificationPipeline& trained_pipeline() {
  static const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline();
  return pipeline;
}

std::vector<metrics::Snapshot> canonical_stream(std::size_t total) {
  const auto runs = core::record_canonical_runs();
  std::vector<metrics::Snapshot> stream;
  stream.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto& run = runs[i % runs.size()];
    metrics::Snapshot snapshot =
        run.announcements[(i / runs.size()) % run.announcements.size()];
    snapshot.time = static_cast<metrics::SimTime>(i / runs.size()) * 5;
    snapshot.node_ip = "10.0.0." + std::to_string(1 + i % runs.size());
    stream.push_back(std::move(snapshot));
  }
  return stream;
}

void print_composition_header() {
  std::printf("%-18s %8s %8s %8s %8s %8s %8s %6s  %s\n", "application",
              "samples", "idle%", "io%", "cpu%", "net%", "paging%", "conf",
              "class");
}

void dump_registry_at_exit() {
  // The static dumper does the work; this function exists so bench mains
  // can force-link the registration in builds that dead-strip statics.
  (void)g_registry_dumper;
}

void print_composition_row(const std::string& label,
                           const core::ClassificationResult& result) {
  const auto f = result.composition.fractions();
  using core::ApplicationClass;
  // The confidence column uses the result's canonical reduction; bench
  // tools must not refold the per-snapshot vectors themselves.
  std::printf("%-18s %8zu %8.2f %8.2f %8.2f %8.2f %8.2f %6.2f  %s\n",
              label.c_str(), result.composition.samples(),
              100.0 * f[core::index_of(ApplicationClass::kIdle)],
              100.0 * f[core::index_of(ApplicationClass::kIo)],
              100.0 * f[core::index_of(ApplicationClass::kCpu)],
              100.0 * f[core::index_of(ApplicationClass::kNetwork)],
              100.0 * f[core::index_of(ApplicationClass::kMemory)],
              result.mean_confidence(),
              std::string(core::to_string(result.application_class)).c_str());
}

}  // namespace appclass::bench
