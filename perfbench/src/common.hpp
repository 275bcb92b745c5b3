// Shared plumbing of the benchmark driver: run arguments, the result
// record every workload fills, the metric catalog, and small process
// helpers (peak RSS, JSON output).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout for state dirs, model files
  /// and the Chrome trace.
  std::string workdir;
  /// appclass_cli binary (the durable path spawns it as the worker).
  std::string cli;
};

/// One catalog entry; the catalog must list exactly the metrics of
/// BENCHMARK.json, with the same units (run.py --selftest checks it).
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
};

const std::vector<MetricSpec>& metric_catalog();

struct Result {
  /// Metric name -> value; only catalog names are accepted.
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness gates in the order they ran: name -> passed.
  std::vector<std::pair<std::string, bool>> gates;
  /// Everything else worth keeping with the numbers (sample counts,
  /// which percentile the tail rule picked, phase rates, residuals).
  std::map<std::string, double> details;

  void set(const std::string& name, double value);
  void gate(const std::string& name, bool passed);
  bool correct() const;
};

/// Peak resident set of this process in MiB, from VmHWM.
double peak_rss_mib();

/// Seconds as a double between two now_ns() readings.
inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Busy-waits (sleeping while far away) until steady time `due_ns`.
void wait_until_ns(std::int64_t due_ns);

std::string json_escape(const std::string& s);

/// Serialises the result as one JSON line (metrics, gates, details).
std::string to_json(const Result& result, const RunArgs& args);

/// Runs `fn` `reps` times and returns the median of its wall times in
/// seconds — set-up is timed this way so one slow repetition does not
/// move the figure.
template <typename Fn>
double median_seconds(int reps, Fn&& fn);

}  // namespace perfbench

#include "stats.hpp"

template <typename Fn>
double perfbench::median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    times.push_back(seconds_between(t0, now_ns()));
  }
  return median(times);
}
