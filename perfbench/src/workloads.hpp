// The benchmark workloads. Each fills a Result with every end-to-end
// metric (untraced run) or every per-layer metric it drives (traced run),
// plus its correctness gates.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_batch_classify(const RunArgs& args);
Result run_stream_ingest(const RunArgs& args);

/// The durable serving path (worker subprocess, link, wire, WAL,
/// checkpoint, recovery), measured layer by layer and gated; the
/// stream_ingest traced run calls it.
void measure_durable_path(const RunArgs& args, Result& result);

}  // namespace perfbench
