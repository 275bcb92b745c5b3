#include "trace/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "linalg/stats.hpp"

namespace appclass::trace {

namespace {

/// Summary of one window of a series.
struct WindowSummary {
  std::size_t begin = 0;  ///< first sample index (inclusive)
  std::size_t end = 0;    ///< one-past-last sample index
  linalg::RunningStats stats;
};

/// Splits `s` into consecutive windows of `window` samples (last window may
/// be shorter) and summarizes each.
std::vector<WindowSummary> windowed_summaries(const TimeSeries& s,
                                              std::size_t window) {
  APPCLASS_EXPECTS(window >= 1);
  std::vector<WindowSummary> out;
  for (std::size_t i = 0; i < s.size(); i += window) {
    WindowSummary ws;
    ws.begin = i;
    ws.end = std::min(i + window, s.size());
    for (std::size_t j = ws.begin; j < ws.end; ++j) ws.stats.add(s.values[j]);
    out.push_back(ws);
  }
  return out;
}

}  // namespace

std::vector<std::size_t> change_points(const TimeSeries& s, std::size_t window,
                                       double threshold) {
  APPCLASS_EXPECTS(window >= 2);
  const auto windows = windowed_summaries(s, window);
  std::vector<std::size_t> boundaries;
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    const auto& a = windows[i].stats;
    const auto& b = windows[i + 1].stats;
    const double pooled =
        std::sqrt(0.5 * (a.variance() + b.variance()));
    const double scale = std::max(pooled, 1e-9);
    if (std::abs(a.mean() - b.mean()) > threshold * scale)
      boundaries.push_back(windows[i + 1].begin);
  }
  return boundaries;
}

std::vector<std::pair<std::size_t, std::size_t>> segments_from_boundaries(
    std::size_t n, std::span<const std::size_t> boundaries) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t start = 0;
  for (std::size_t b : boundaries) {
    APPCLASS_EXPECTS(b >= start && b <= n);
    if (b > start) out.emplace_back(start, b);
    start = b;
  }
  if (start < n) out.emplace_back(start, n);
  return out;
}

}  // namespace appclass::trace
