// Shared helpers for the experiment-reproduction harnesses in bench/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "monitor/harness.hpp"

namespace appclass::bench {

/// Profiles one standalone run of catalog application `app_name` on the
/// paper's testbed (target VM1 with `vm1_ram_mb`; VM4 available as the
/// network peer) and returns the captured pool + timing.
monitor::ProfiledRun profile_standalone(const std::string& app_name,
                                        double vm1_ram_mb = 256.0,
                                        std::uint64_t seed = 1234,
                                        int sampling_interval_s = 5);

/// Trains the paper's classifier once (memoized across calls within the
/// process) and returns a reference to it.
const core::ClassificationPipeline& trained_pipeline();

/// `total` grid-aligned snapshots cycling the five canonical runs'
/// recorded announcements across node IPs 10.0.0.1-5: each node sees a
/// dense 5 s grid (t = 0, 5, 10, ...), so windows stay fully covered.
std::vector<metrics::Snapshot> canonical_stream(std::size_t total);

/// Prints "name  #samples  idle%  io%  cpu%  net%  mem%  class" rows.
void print_composition_row(const std::string& label,
                           const core::ClassificationResult& result);

void print_composition_header();

/// Every bench binary linking bench_util dumps the obs metrics registry
/// (stage timings, counters) to stderr when the process exits, so each
/// benchmark's results carry their observability snapshot. Controlled by
/// APPCLASS_BENCH_STATS: unset or "table" = summary table, "json" = one
/// JSON object, "prom" = Prometheus text, "0"/"off" = disabled.
void dump_registry_at_exit();

}  // namespace appclass::bench
