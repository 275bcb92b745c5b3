// Time-series utilities over sampled metric values.
//
// The classifier itself treats snapshots as i.i.d. points, but
// multi-stage segmentation (paper section 7) needs an ordered-in-time
// view: change-point detection and the segments it induces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace appclass::trace {

/// A uniformly sampled scalar series: value[i] observed at
/// start_time + i * interval.
struct TimeSeries {
  std::int64_t start_time = 0;
  std::int64_t interval = 1;  ///< seconds between samples; > 0
  std::vector<double> values;

  std::size_t size() const noexcept { return values.size(); }
  bool empty() const noexcept { return values.empty(); }
  std::int64_t time_at(std::size_t i) const noexcept {
    return start_time + static_cast<std::int64_t>(i) * interval;
  }
};

/// Detects change points in a series by comparing means of adjacent windows:
/// a boundary between windows i and i+1 is a change point when the absolute
/// difference of their means exceeds `threshold` times the pooled stddev.
/// Returns sample indices of detected boundaries. This is the segmentation
/// primitive behind multi-stage application analysis (paper section 7).
std::vector<std::size_t> change_points(const TimeSeries& s, std::size_t window,
                                       double threshold = 2.0);

/// Splits [0, n) into segments at the given boundaries (sorted, in-range).
std::vector<std::pair<std::size_t, std::size_t>> segments_from_boundaries(
    std::size_t n, std::span<const std::size_t> boundaries);

}  // namespace appclass::trace
