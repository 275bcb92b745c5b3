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

/// Five tight clusters laid out like the paper's Figure 3 (one per
/// class, far apart in the projected plane).
linalg::Matrix clustered_points(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.3);
  linalg::Matrix m(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double c = static_cast<double>(r % 5);
    m(r, 0) = 4.0 * c + noise(rng);
    m(r, 1) = 3.0 * static_cast<double>(r % 2) + noise(rng);
  }
  return m;
}

/// Every query row of `queries` against the reference scan, bit for bit:
/// same distances, same indices, same order.
void expect_queries_match(const linalg::Matrix& points,
                          const linalg::Matrix& queries, std::size_t k) {
  BlockedKnnIndex index;
  index.build(points, cycling_labels(points.rows()), k);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    const auto q = queries.row(r);
    const auto hits = index.top_k(q, scratch);
    const auto expected = engine::reference_top_k(points, q, k);
    ASSERT_EQ(hits.size(), expected.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      // Bit-identical, not approximately equal: both paths must sum the
      // per-feature terms in the same order.
      EXPECT_EQ(hits[i].distance, expected[i].distance)
          << "n=" << points.rows() << " k=" << k << " query=" << r
          << " rank=" << i;
      EXPECT_EQ(hits[i].index, expected[i].index)
          << "n=" << points.rows() << " k=" << k << " query=" << r
          << " rank=" << i;
    }
  }
}

void expect_matches_reference(std::size_t n, std::size_t dims, std::size_t k,
                              std::uint32_t seed) {
  expect_queries_match(random_points(n, dims, seed),
                       random_points(64, dims, seed + 1), k);
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
  // test above. 40 tiles and a partial one give the k-d packing several
  // levels of splits on every axis.
  const std::size_t tile = BlockedKnnIndex::kTile;
  for (const std::size_t dims : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}}) {
    for (const std::size_t n :
         {std::size_t{5}, tile, 2 * tile + 17, 40 * tile + 17}) {
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
  // at distance exactly 0.0 — the novelty tests depend on this — and
  // under its own row index, not the slot the packing moved it to.
  const linalg::Matrix points = random_points(12 * BlockedKnnIndex::kTile, 2, 42);
  BlockedKnnIndex index;
  index.build(points, cycling_labels(points.rows()), 3);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < points.rows(); r += 13) {
    const auto hits = index.top_k(points.row(r), scratch);
    EXPECT_EQ(hits[0].distance, 0.0);
    EXPECT_EQ(hits[0].index, r);
  }
}

TEST(EngineKernel, PruningNeverChangesResults) {
  // Two tight clusters very far apart: querying inside one cluster makes
  // the other cluster's tiles prunable via their boxes. The pruned scan
  // must still return exactly what the reference scan returns.
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
  linalg::Matrix queries(0, 2);
  for (std::size_t r = 0; r < 2 * half; r += 37) queries.append_row(points.row(r));
  expect_queries_match(points, queries, 3);
}

TEST(EngineKernel, EqualDistanceLowerIndexInLaterTileWins) {
  // Figure-3-like clusters, moved to x >= ~29, plus two runs of exact
  // duplicates two tiles long: B at (2, 0) holds the lowest training
  // indices, A at (0, 0) the highest. The packing cuts on x, so A fills
  // tiles 0-1 and B tiles 2-3. From (1, 0) every copy is at distance
  // exactly 1 and all four boxes bound 1: the scan fills its k slots
  // from A's tile first, B's tiles tie the k-th distance and must still
  // be scanned (the prune is a strict '>'), and B's lower indices win.
  const std::size_t tile = BlockedKnnIndex::kTile;
  const std::size_t n = 12 * tile;
  linalg::Matrix points = clustered_points(n, 5);
  for (std::size_t r = 0; r < n; ++r) points(r, 0) += 30.0;
  for (std::size_t r = 0; r < 2 * tile; ++r) {
    points(r, 0) = 2.0;
    points(r, 1) = 0.0;
    points(n - 1 - r, 0) = 0.0;
    points(n - 1 - r, 1) = 0.0;
  }
  const linalg::Matrix queries{{1.0, 0.0}, {2.0, 0.0}, {0.0, 0.0},
                               {31.0, 0.0}};
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{9}})
    expect_queries_match(points, queries, k);

  BlockedKnnIndex index;
  index.build(points, cycling_labels(n), 3);
  BlockedKnnIndex::Scratch scratch;
  const auto hits = index.top_k(std::vector<double>{1.0, 0.0}, scratch);
  ASSERT_EQ(hits.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[i].distance, 1.0);
    EXPECT_EQ(hits[i].index, i);
  }
}

TEST(EngineKernel, QueryFarOutsideEveryBoxMatchesReference) {
  const linalg::Matrix points = clustered_points(20 * BlockedKnnIndex::kTile, 6);
  const linalg::Matrix queries{
      {1e6, -1e6}, {-1e6, 3.0}, {8.0, 1e9}, {-1e-300, 1e300}};
  expect_queries_match(points, queries, 3);
}

TEST(EngineKernel, DegenerateLayoutsMatchReference) {
  const std::size_t n = 9 * BlockedKnnIndex::kTile + 3;
  const linalg::Matrix queries = random_points(64, 2, 8);
  // All points on one line (x extent zero, then a slanted line).
  linalg::Matrix vertical = random_points(n, 2, 7);
  for (std::size_t r = 0; r < n; ++r) vertical(r, 0) = 1.5;
  expect_queries_match(vertical, queries, 3);
  linalg::Matrix slanted = random_points(n, 2, 9);
  for (std::size_t r = 0; r < n; ++r) slanted(r, 1) = 3.0 * slanted(r, 0) - 1.0;
  expect_queries_match(slanted, queries, 3);
  // Input pre-sorted descending on both axes.
  linalg::Matrix sorted(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    sorted(r, 0) = 5.0 - 10.0 * static_cast<double>(r) / static_cast<double>(n);
    sorted(r, 1) = sorted(r, 0) * 0.5;
  }
  expect_queries_match(sorted, queries, 3);
  // Every point identical: one box, all ties.
  linalg::Matrix same(n, 2);
  for (std::size_t r = 0; r < n; ++r) same(r, 0) = 0.25, same(r, 1) = -0.5;
  expect_queries_match(same, queries, 5);
}

TEST(EngineKernel, InClusterQuerySkipsNearlyEveryTile) {
  // The count behind the packed kernel's speed-up, deterministic where a
  // timing is not: on clustered data a query inside a cluster scans its
  // nearest box and the few boxes that touch its k-th distance, and
  // prunes at least 90% of the rest.
  const std::size_t tiles = 80;
  const linalg::Matrix points = clustered_points(tiles * BlockedKnnIndex::kTile, 11);
  BlockedKnnIndex index;
  index.build(points, cycling_labels(points.rows()), 3);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < points.rows(); r += 997) {
    scratch.pruned_tiles = 0;
    const auto hits = index.top_k(points.row(r), scratch);
    EXPECT_EQ(hits[0].index, r);
    EXPECT_GE(scratch.pruned_tiles, tiles * 9 / 10) << "query row " << r;
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
