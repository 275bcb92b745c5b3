#include "trace/timeseries.hpp"

#include <gtest/gtest.h>

namespace appclass::trace {
namespace {

TimeSeries make_series(std::vector<double> values, std::int64_t interval = 1) {
  TimeSeries s;
  s.start_time = 100;
  s.interval = interval;
  s.values = std::move(values);
  return s;
}

TEST(TimeSeries, TimeAtUsesInterval) {
  const TimeSeries s = make_series({1, 2, 3}, 5);
  EXPECT_EQ(s.time_at(0), 100);
  EXPECT_EQ(s.time_at(2), 110);
}

TEST(ChangePoints, DetectsStepChange) {
  std::vector<double> v;
  for (int i = 0; i < 20; ++i) v.push_back(1.0 + 0.01 * (i % 2));
  for (int i = 0; i < 20; ++i) v.push_back(10.0 + 0.01 * (i % 2));
  const auto cp = change_points(make_series(std::move(v)), 5, 2.0);
  ASSERT_FALSE(cp.empty());
  EXPECT_EQ(cp.front(), 20u);
}

TEST(ChangePoints, QuietSeriesHasNone) {
  std::vector<double> v(40, 3.0);
  const auto cp = change_points(make_series(std::move(v)), 5, 2.0);
  EXPECT_TRUE(cp.empty());
}

TEST(Segments, SplitAtBoundaries) {
  const std::vector<std::size_t> b = {3, 7};
  const auto segs = segments_from_boundaries(10, b);
  ASSERT_EQ(segs.size(), 3u);
  using Seg = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(segs[0], (Seg{0, 3}));
  EXPECT_EQ(segs[1], (Seg{3, 7}));
  EXPECT_EQ(segs[2], (Seg{7, 10}));
}

TEST(Segments, NoBoundariesIsWholeRange) {
  const auto segs = segments_from_boundaries(5, {});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].second, 5u);
}

TEST(Segments, BoundaryAtEndYieldsNoEmptySegment) {
  const std::vector<std::size_t> b = {5};
  const auto segs = segments_from_boundaries(5, b);
  ASSERT_EQ(segs.size(), 1u);
  using Seg = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(segs[0], (Seg{0, 5}));
}

}  // namespace
}  // namespace appclass::trace
