// The one timing harness of the BENCH_*.json benches: argument parsing,
// interleaved repetition, median/p10/p90 statistics and the JSON
// envelope (docs/performance.md, "The bench harness").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace appclass::bench {

/// `<bench> [--quick] [--out=FILE]`. --quick shrinks the workload for
/// smoke runs; the JSON shape is identical.
struct Args {
  std::string bench;
  std::string out_path;
  bool quick = false;
};

/// Parses the bench's command line (usage message and exit 2 on anything
/// else) and arms dump_registry_at_exit().
Args parse_args(int argc, char** argv, std::string_view bench,
                std::string_view default_out);

/// Timed rounds per variant, after one untimed warm-up of each.
inline constexpr int kRounds = 9;

/// Runs every variant once untimed, then kRounds rounds that each run
/// every variant once, rotating which goes first. Returns each variant's
/// wall seconds per round: seconds[variant][round].
std::vector<std::vector<double>> time_interleaved(
    const std::vector<std::function<void()>>& variants);

/// Nearest-rank spread of a sample (with nine rounds, p10 and p90 are
/// the fastest and the slowest round).
struct Spread {
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
};
Spread spread(std::vector<double> samples);

/// Median over rounds of numerator[r] / denominator[r]: a slow phase of
/// the host hits both sides of a round, so it cancels in the ratio.
double paired_ratio(const std::vector<double>& numerator,
                    const std::vector<double>& denominator);

/// An ordered JSON object under construction. Non-finite numbers are
/// written as null.
class Fields {
 public:
  Fields& num(std::string_view key, double value);
  Fields& count(std::string_view key, std::uint64_t value);
  Fields& flag(std::string_view key, bool value);
  Fields& text(std::string_view key, std::string_view value);
  Fields& object(std::string_view key, const Fields& value);
  /// median_s / p10_s / p90_s of per-round seconds, then `rate_key` =
  /// `work` / median_s when a key is given.
  Fields& timing(const std::vector<double>& seconds,
                 std::string_view rate_key = {}, double work = 0.0);

  std::string json() const;

 private:
  friend int write_report(const Args&, const Fields&,
                          const std::vector<Fields>&);
  std::string& key(std::string_view name);
  std::vector<std::string> entries_;  // `"key": value`
};

/// Writes the envelope — bench, git_sha, build_type, nproc, quick — then
/// `scalars` and the `results` rows to args.out_path, echoes it to
/// stdout, and returns the process exit code.
int write_report(const Args& args, const Fields& scalars,
                 const std::vector<Fields>& rows = {});

}  // namespace appclass::bench
