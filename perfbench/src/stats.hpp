// The benchmark's own arithmetic: percentiles from raw samples, open-loop
// due-time accounting, per-block medians, residuals and ratios. Header
// only and free of repository dependencies so selftest.cpp can pin every
// rule without building a workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// A percentile may be reported only when at least this many samples lie
/// strictly beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// The fixed percentile ladder the tail rule picks from.
inline constexpr double kTailLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};

/// Nearest-rank index of quantile q in a sorted sample of size n: the
/// smallest index whose cumulative share reaches q.
inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("rank_index: empty sample");
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("rank_index: q outside (0, 1]");
  // Rounded so that q * n landing exactly on an integer (0.99 * 1000)
  // does not ceil up by a floating-point hair.
  const double scaled = std::round(q * static_cast<double>(n) * 1e9) / 1e9;
  const auto rank = static_cast<std::size_t>(std::ceil(scaled));
  return std::max<std::size_t>(rank, 1) - 1;
}

/// Samples strictly above the nearest-rank q-quantile position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - 1 - rank_index(n, q);
}

/// Whether percentile q is reportable from n raw samples.
inline bool percentile_reportable(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinTailSamples;
}

/// Nearest-rank quantile of an already sorted sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  return sorted[rank_index(sorted.size(), q)];
}

/// Highest ladder percentile with at least kMinTailSamples beyond it;
/// 0 when even the median is not reportable.
inline double highest_reportable(std::size_t n) {
  double best = 0.0;
  for (const double q : kTailLadder)
    if (percentile_reportable(n, q)) best = q;
  return best;
}

/// Median (mean of the middle pair for even n) — for per-block and
/// per-repetition summaries, where the sample is small.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A latency distribution summarised from raw per-operation samples.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  bool p99_reportable = false;
  /// Highest ladder percentile the sample supports, and its value.
  double tail_q = 0.0;
  double tail = 0.0;
  double max = 0.0;
};

inline LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.max = samples.back();
  s.p50 = quantile_sorted(samples, 0.5);
  s.p90 = quantile_sorted(samples, 0.9);
  s.p99 = quantile_sorted(samples, 0.99);
  s.p99_reportable = percentile_reportable(samples.size(), 0.99);
  s.tail_q = highest_reportable(samples.size());
  s.tail = s.tail_q > 0.0 ? quantile_sorted(samples, s.tail_q) : s.max;
  return s;
}

/// Open-loop schedule: operation i is due at start + i / rate. Latency
/// runs from the due time, so a stall that delays later sends is charged
/// to them; lateness is how far behind its schedule the generator ran.
class Schedule {
 public:
  Schedule(std::int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), rate_(rate_per_s) {
    if (!(rate_per_s > 0.0))
      throw std::invalid_argument("Schedule: rate must be positive");
  }

  std::int64_t due_ns(std::uint64_t i) const {
    return start_ns_ +
           static_cast<std::int64_t>(std::llround(static_cast<double>(i) *
                                                  1e9 / rate_));
  }

 private:
  std::int64_t start_ns_;
  double rate_;
};

/// How late an operation started against its due time (never negative:
/// an early start is a wait, not negative lateness).
inline double lateness_ms(std::int64_t due_ns, std::int64_t started_ns) {
  return started_ns > due_ns ? static_cast<double>(started_ns - due_ns) * 1e-6
                             : 0.0;
}

/// Latency charged from the due time.
inline double since_due_ms(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) * 1e-6;
}

/// Completion times of a batched consumer, mapped back onto the items.
/// Each consumer call retires the next `count` items in push order and
/// returns at `done_ns`; item k's latency is done_ns - due(k).
struct BatchReturn {
  std::int64_t done_ns;
  std::uint64_t count;
};

template <typename DueFn>
std::vector<double> batch_latencies_ms(const std::vector<BatchReturn>& returns,
                                       DueFn&& due_ns) {
  std::vector<double> out;
  std::uint64_t item = 0;
  for (const BatchReturn& r : returns)
    for (std::uint64_t j = 0; j < r.count; ++j, ++item)
      out.push_back(since_due_ms(due_ns(item), r.done_ns));
  return out;
}

/// Throughput of one measured block.
struct Block {
  double seconds = 0.0;
  double work = 0.0;
};

/// Median over blocks of work per second — robust to a block that a
/// neighbour's burst slowed, which a whole-run mean is not.
inline double median_rate(const std::vector<Block>& blocks) {
  std::vector<double> rates;
  for (const Block& b : blocks)
    if (b.seconds > 0.0) rates.push_back(b.work / b.seconds);
  if (rates.empty()) throw std::invalid_argument("median_rate: no blocks");
  return median(rates);
}

/// Share of the full-path time the per-layer times leave unexplained:
/// (full - sum of layers) / full. Positive = time outside every layer,
/// negative = layers add up to more than the path (tracing cost).
inline double residual_ratio(double full, double layer_sum) {
  if (!(full > 0.0)) throw std::invalid_argument("residual_ratio: full <= 0");
  return (full - layer_sum) / full;
}

/// numerator / base, refusing a zero base instead of printing inf.
inline double ratio(double numerator, double base) {
  if (!(base > 0.0)) throw std::invalid_argument("ratio: base <= 0");
  return numerator / base;
}

}  // namespace perfbench
