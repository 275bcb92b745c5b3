#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "common/json.hpp"
#include "perfbench/src/stats.hpp"

namespace appclass::bench {
namespace {

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out.append(separator);
    out.append(part);
  }
  return out;
}

}  // namespace

Args parse_args(int argc, char** argv, std::string_view bench,
                std::string_view default_out) {
  Args args{std::string(bench), std::string(default_out), false};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg.starts_with("--out=")) {
      args.out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=file.json]\n",
                   args.bench.c_str());
      std::exit(2);
    }
  }
  dump_registry_at_exit();
  return args;
}

std::vector<std::vector<double>> time_interleaved(
    const std::vector<std::function<void()>>& variants) {
  for (const auto& variant : variants) variant();
  std::vector<std::vector<double>> seconds(variants.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const std::size_t v = (static_cast<std::size_t>(round) + i) %
                            variants.size();
      const auto t0 = std::chrono::steady_clock::now();
      variants[v]();
      seconds[v].push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
  }
  return seconds;
}

Spread spread(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {perfbench::median(samples),
          perfbench::quantile_sorted(samples, 0.10),
          perfbench::quantile_sorted(samples, 0.90)};
}

double paired_ratio(const std::vector<double>& numerator,
                    const std::vector<double>& denominator) {
  APPCLASS_EXPECTS(numerator.size() == denominator.size());
  std::vector<double> ratios(numerator.size());
  for (std::size_t r = 0; r < ratios.size(); ++r)
    ratios[r] = numerator[r] / denominator[r];
  return perfbench::median(std::move(ratios));
}

std::string& Fields::key(std::string_view name) {
  std::string& entry = entries_.emplace_back("\"");
  common::json_escape_into(entry, name);
  entry.append("\": ");
  return entry;
}

Fields& Fields::num(std::string_view name, double value) {
  if (!std::isfinite(value)) {
    key(name).append("null");
    return *this;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  key(name).append(buffer);
  return *this;
}

Fields& Fields::count(std::string_view name, std::uint64_t value) {
  key(name).append(std::to_string(value));
  return *this;
}

Fields& Fields::flag(std::string_view name, bool value) {
  key(name).append(value ? "true" : "false");
  return *this;
}

Fields& Fields::text(std::string_view name, std::string_view value) {
  std::string& out = key(name);
  out.push_back('"');
  common::json_escape_into(out, value);
  out.push_back('"');
  return *this;
}

Fields& Fields::object(std::string_view name, const Fields& value) {
  key(name).append(value.json());
  return *this;
}

Fields& Fields::timing(const std::vector<double>& seconds,
                       std::string_view rate_key, double work) {
  const Spread s = spread(seconds);
  num("median_s", s.median).num("p10_s", s.p10).num("p90_s", s.p90);
  return rate_key.empty() ? *this : num(rate_key, work / s.median);
}

std::string Fields::json() const { return "{" + join(entries_, ", ") + "}"; }

int write_report(const Args& args, const Fields& scalars,
                 const std::vector<Fields>& rows) {
  Fields report;
  report.text("bench", args.bench)
      .text("git_sha", APPCLASS_GIT_SHA)
      .text("build_type", APPCLASS_BUILD_TYPE)
      .count("nproc", std::thread::hardware_concurrency())
      .flag("quick", args.quick);
  report.entries_.insert(report.entries_.end(), scalars.entries_.begin(),
                         scalars.entries_.end());
  if (!rows.empty()) {
    std::vector<std::string> lines;
    for (const auto& row : rows) lines.push_back(row.json());
    report.key("results") += "[\n    " + join(lines, ",\n    ") + "\n  ]";
  }
  // One top-level key and one row per line, so diffs of a refreshed
  // file stay readable.
  const std::string text = "{\n  " + join(report.entries_, ",\n  ") + "\n}\n";
  std::FILE* out = std::fopen(args.out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  std::fputs(text.c_str(), out);
  const bool ok = std::fclose(out) == 0;
  std::printf("%swrote %s\n", text.c_str(), args.out_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace appclass::bench
