#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

const std::vector<MetricSpec>& metric_catalog() {
  static const std::vector<MetricSpec> catalog = {
      // End to end: what a user of the system sees (tracing off).
      {"setup_s", "s", true},
      {"throughput_per_s", "1/s", true},
      {"latency_p50_ms", "ms", true},
      {"latency_p90_ms", "ms", true},
      {"recover_s", "s", true},
      {"peak_rss_mb", "MiB", true},
      {"success_ratio", "ratio", true},
      {"class_accuracy", "ratio", true},
      // Per layer (traced run). A layer a workload does not drive reads 0.
      {"core.preprocess.busy_s", "s", false},
      {"core.pca.busy_s", "s", false},
      {"core.knn.busy_s", "s", false},
      {"core.vote.busy_s", "s", false},
      {"core.knn.queries", "count", false},
      {"core.knn.ref_points", "count", false},
      {"core.knn.ns_per_query", "ns", false},
      {"engine.pool.serial_s", "s", false},
      {"engine.pool.speedup", "ratio", false},
      {"batch.residual_ratio", "ratio", false},
      {"monitor.bus.busy_s", "s", false},
      {"monitor.bus.announces", "count", false},
      {"engine.fleet.push.busy_s", "s", false},
      {"engine.fleet.push.accepted", "count", false},
      {"engine.fleet.push.filtered", "count", false},
      {"core.classify_batch.busy_s", "s", false},
      {"core.online.ingest.busy_s", "s", false},
      {"obs.health.overhead_ratio", "ratio", false},
      {"engine.fleet.drain.busy_s", "s", false},
      {"engine.fleet.drain.calls", "count", false},
      {"engine.fleet.batch_mean", "count", false},
      {"engine.fleet.backlog_peak", "count", false},
      {"engine.fleet.ring_grows", "count", false},
      {"engine.fleet.dropped", "count", false},
      {"stream.residual_ratio", "ratio", false},
      {"dist.wire.encode.busy_s", "s", false},
      {"dist.wire.bytes", "bytes", false},
      {"persist.wal.append.busy_s", "s", false},
      {"persist.wal.appends", "count", false},
      {"persist.wal.bytes", "bytes", false},
      {"worker.e2e_ingest_mean_ms", "ms", false},
      {"dist.link.send.busy_s", "s", false},
      {"dist.link.flush.wait_s", "s", false},
      {"dist.link.in_flight_mean", "count", false},
      {"dist.link.reconnects", "count", false},
      {"persist.checkpoint.write.busy_s", "s", false},
      {"durable.residual_ratio", "ratio", false},
      {"persist.recovery.busy_s", "s", false},
      {"persist.recovery.replayed", "count", false},
      {"loadgen.late_p99_ms", "ms", false},
      {"trace.overhead_ratio", "ratio", false},
  };
  return catalog;
}

void Result::set(const std::string& name, double value) {
  for (const MetricSpec& spec : metric_catalog())
    if (name == spec.name) {
      if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
      metrics[name] = value;
      return;
    }
  throw std::logic_error("metric not in catalog: " + name);
}

void Result::gate(const std::string& name, bool passed) {
  gates.emplace_back(name, passed);
  if (!passed) std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", name.c_str());
}

bool Result::correct() const {
  for (const auto& [name, passed] : gates)
    if (!passed) return false;
  return !gates.empty();
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void wait_until_ns(std::int64_t due_ns) {
  // Sleep only through long gaps and spin the last millisecond: a sleeping
  // generator wakes late by the scheduler's slack, and that lateness
  // would be charged to the operations it sends.
  const std::int64_t left = due_ns - now_ns();
  if (left > 2'000'000)
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - 1'000'000));
  while (now_ns() < due_ns) {
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string to_json(const Result& result, const RunArgs& args) {
  std::ostringstream out;
  out << "{\"workload\":\"" << json_escape(args.workload)
      << "\",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
      << ",\"trace\":" << (args.trace ? "true" : "false")
      << ",\"correct\":" << (result.correct() ? "true" : "false")
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    out << (first ? "" : ",") << "\"" << name << "\":" << number(value);
    first = false;
  }
  out << "},\"gates\":{";
  first = true;
  for (const auto& [name, passed] : result.gates) {
    out << (first ? "" : ",") << "\"" << json_escape(name)
        << "\":" << (passed ? "true" : "false");
    first = false;
  }
  out << "},\"details\":{";
  first = true;
  for (const auto& [name, value] : result.details) {
    out << (first ? "" : ",") << "\"" << json_escape(name)
        << "\":" << number(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
