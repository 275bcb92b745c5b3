// The blocked SoA kernel must agree bit-for-bit with the seed's scalar
// query path (preserved as engine::reference_top_k): same distances,
// same neighbour order, same tie-breaks, for every size around the tile
// boundary, every tile-distance shape (one feature, the fused two-feature
// pass, store + accumulate) and both query entry points — otherwise
// threaded classification could drift from the serial baseline.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "engine/knn_kernel.hpp"
#include "linalg/matrix.hpp"

namespace appclass {
namespace {

using engine::BlockedKnnIndex;

linalg::Matrix random_points(std::size_t n, std::size_t dims,
                             std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  linalg::Matrix m(n, dims);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < dims; ++c) m(r, c) = dist(rng);
  return m;
}

std::vector<core::ApplicationClass> cycling_labels(std::size_t n) {
  std::vector<core::ApplicationClass> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<core::ApplicationClass>(i % 5);
  return labels;
}

void expect_matches_reference(std::size_t n, std::size_t dims, std::size_t k,
                              std::uint32_t seed) {
  const linalg::Matrix points = random_points(n, dims, seed);
  BlockedKnnIndex index;
  index.build(points, cycling_labels(n), k);
  BlockedKnnIndex::Scratch scratch;

  const linalg::Matrix queries = random_points(64, dims, seed + 1);
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    const auto q = queries.row(r);
    const auto hits = index.top_k(q, scratch);
    const auto expected = engine::reference_top_k(points, q, k);
    ASSERT_EQ(hits.size(), expected.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      // Bit-identical, not approximately equal: both paths must sum the
      // per-feature terms in the same order.
      EXPECT_EQ(hits[i].distance, expected[i].distance)
          << "n=" << n << " k=" << k << " query=" << r << " rank=" << i;
      EXPECT_EQ(hits[i].index, expected[i].index)
          << "n=" << n << " k=" << k << " query=" << r << " rank=" << i;
    }
  }
}

TEST(EngineKernel, MatchesReferenceAcrossTileBoundaries) {
  const std::size_t tile = BlockedKnnIndex::kTile;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        tile - 1, tile, tile + 1, 3 * tile, 3 * tile + 5}) {
    expect_matches_reference(n, 2, 3, static_cast<std::uint32_t>(n));
  }
}

TEST(EngineKernel, MatchesReferenceAcrossDimensions) {
  // dims = 1 runs only the first-feature store, 3 and 8 the store plus
  // accumulate sweeps; the fused two-feature pass is the tile-boundary
  // test above.
  const std::size_t tile = BlockedKnnIndex::kTile;
  for (const std::size_t dims : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}}) {
    for (const std::size_t n : {std::size_t{5}, tile, 2 * tile + 17}) {
      expect_matches_reference(n, dims, 3,
                               static_cast<std::uint32_t>(100 + n + dims));
    }
  }
}

TEST(EngineKernel, MatchesReferenceForVariousK) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{9},
                              std::size_t{31}}) {
    expect_matches_reference(500, 4, k, static_cast<std::uint32_t>(1000 + k));
  }
}

TEST(EngineKernel, KLargerThanPointCountIsClamped) {
  const linalg::Matrix points = random_points(4, 2, 7);
  BlockedKnnIndex index;
  index.build(points, cycling_labels(4), 9);
  BlockedKnnIndex::Scratch scratch;
  const auto hits = index.top_k(points.row(0), scratch);
  EXPECT_EQ(hits.size(), 4u);
}

TEST(EngineKernel, SelfDistanceIsExactlyZero) {
  // The kernel accumulates squared differences directly (no norm-trick
  // expansion), so a training point queried against itself must come back
  // at distance exactly 0.0 — the novelty tests depend on this.
  const linalg::Matrix points = random_points(700, 2, 42);
  BlockedKnnIndex index;
  index.build(points, cycling_labels(700), 3);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < points.rows(); r += 13) {
    const auto hits = index.top_k(points.row(r), scratch);
    EXPECT_EQ(hits[0].distance, 0.0);
    EXPECT_EQ(hits[0].index, r);
  }
}

TEST(EngineKernel, PruningNeverChangesResults) {
  // Two tight clusters very far apart: querying inside one cluster makes
  // the other cluster's tiles prunable via the norm bounds. The pruned
  // scan must still return exactly what the reference scan returns.
  std::mt19937 rng(99);
  std::normal_distribution<double> noise(0.0, 0.01);
  const std::size_t half = 2 * BlockedKnnIndex::kTile;
  linalg::Matrix points(2 * half, 2);
  for (std::size_t r = 0; r < half; ++r) {
    points(r, 0) = noise(rng);
    points(r, 1) = noise(rng);
  }
  for (std::size_t r = half; r < 2 * half; ++r) {
    points(r, 0) = 1000.0 + noise(rng);
    points(r, 1) = 1000.0 + noise(rng);
  }
  BlockedKnnIndex index;
  index.build(points, cycling_labels(2 * half), 3);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < 2 * half; r += 37) {
    const auto hits = index.top_k(points.row(r), scratch);
    const auto expected = engine::reference_top_k(points, points.row(r), 3);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].distance, expected[i].distance);
      EXPECT_EQ(hits[i].index, expected[i].index);
    }
  }
}

TEST(EngineKernel, TieBreaksTowardLowerIndex) {
  // Four training points equidistant from the query; the reported
  // neighbours must be the lowest indices, like partial_sort over
  // (distance, index) pairs.
  linalg::Matrix points{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
  BlockedKnnIndex index;
  index.build(points, cycling_labels(4), 3);
  BlockedKnnIndex::Scratch scratch;
  const auto hits = index.top_k(std::vector<double>{0.0, 0.0}, scratch);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 1u);
  EXPECT_EQ(hits[2].index, 2u);
}

TEST(EngineKernel, QueryBlockStridedPathMatchesContiguousPath) {
  // The streaming drain lays query points feature-major in a QueryBlock
  // (stride = block capacity); the strided loads must reproduce the
  // reference scan over contiguous rows bit-for-bit — only addresses
  // change, never the order the per-feature terms are accumulated in.
  // dims = 2 reads the second feature through the fused pair pass, 3
  // through the accumulate sweep.
  for (const std::size_t dims : {std::size_t{2}, std::size_t{3}}) {
    const linalg::Matrix points = random_points(700, dims, 11);
    BlockedKnnIndex index;
    index.build(points, cycling_labels(700), 3);
    BlockedKnnIndex::Scratch scratch;

    const linalg::Matrix queries = random_points(40, dims, 12);
    engine::QueryBlock block;
    // Reset large then small: count < capacity forces stride > count, so
    // the strided addressing is actually exercised.
    block.reset(dims, 64);
    block.reset(dims, queries.rows());
    ASSERT_GT(block.stride(), queries.rows());
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      double* point = block.point(i);
      for (std::size_t j = 0; j < dims; ++j)
        point[j * block.stride()] = queries(i, j);
    }

    for (std::size_t i = 0; i < queries.rows(); ++i) {
      const auto strided = index.top_k(block, i, scratch);
      const auto expected = engine::reference_top_k(points, queries.row(i), 3);
      ASSERT_EQ(strided.size(), expected.size());
      for (std::size_t r = 0; r < expected.size(); ++r) {
        EXPECT_EQ(strided[r].distance, expected[r].distance)
            << "dims=" << dims << " query=" << i << " rank=" << r;
        EXPECT_EQ(strided[r].index, expected[r].index)
            << "dims=" << dims << " query=" << i << " rank=" << r;
      }
    }
  }
}

TEST(EngineKernel, VoteMatchesSeedSemantics) {
  BlockedKnnIndex index;
  linalg::Matrix points{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  index.build(points,
              {core::ApplicationClass::kCpu, core::ApplicationClass::kCpu,
               core::ApplicationClass::kIo},
              3);
  BlockedKnnIndex::Scratch scratch;
  const auto hits = index.top_k(std::vector<double>{0.9, 0.0}, scratch);
  const auto vote = index.vote(hits);
  EXPECT_EQ(vote.label, core::ApplicationClass::kCpu);
  EXPECT_DOUBLE_EQ(vote.share, 2.0 / 3.0);
}

}  // namespace
}  // namespace appclass
