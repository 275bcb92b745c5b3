// perfbench_driver: runs one benchmark workload and prints its result as
// one JSON line on stdout. run.py builds this binary, invokes it, and
// turns the line into the benchmark's output contract.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir> --cli <appclass_cli>
//   perfbench_driver --list-metrics
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <batch_classify|"
               "stream_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--cli <appclass_cli>]\n"
               "       perfbench_driver --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricSpec& m : metric_catalog())
        std::printf("%s %s %s\n", m.end_to_end ? "end_to_end" : "per_layer",
                    m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--cli") {
      args.cli = value;
    } else {
      return usage();
    }
  }
  if (args.workdir.empty()) return usage();

  try {
    Result result;
    if (args.workload == "batch_classify")
      result = run_batch_classify(args);
    else if (args.workload == "stream_ingest")
      result = run_stream_ingest(args);
    else
      return usage();

    if (args.trace) {
      result.details["tracer.span_in_ns"] = tracer_cost().span_in_ns;
      result.details["tracer.child_extra_ns"] = tracer_cost().child_extra_ns;
    }
    // Layers this workload does not drive read 0 in the traced run.
    if (args.trace)
      for (const MetricSpec& m : metric_catalog())
        if (!m.end_to_end && !result.metrics.count(m.name))
          result.metrics[m.name] = 0.0;
    for (const MetricSpec& m : metric_catalog())
      if (m.end_to_end != args.trace && !result.metrics.count(m.name)) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n",
                     m.name);
        return 1;
      }
    std::printf("%s\n", to_json(result, args).c_str());
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
