// Blocked structure-of-arrays k-NN kernel.
//
// The seed classifier walked an AoS row-major matrix one training point
// at a time through a `std::span` distance call, heap-allocated an
// n-entry (distance, index) vector per query, and partial_sort'ed it —
// cache-hostile and allocation-bound. This kernel stores the training
// set feature-major (column-major: feature j of every point contiguous),
// computes squared Euclidean distances tile-by-tile so the compiler
// vectorizes across the points of a tile, and keeps only the best k via
// insertion into a k-slot scratch array. No allocation on the query path.
// Both query entry points run the same scan; they differ only in the
// stride at which the query's features are read.
//
// Numerical contract: per-point distance accumulation visits features in
// ascending order — exactly the order of linalg::squared_distance — so
// distances (and therefore neighbour order, votes, and novelty scores)
// are bit-identical to the seed's scalar path, kept as reference_top_k.
// Ties in distance break toward the lower training index, matching
// partial_sort over (distance, index) pairs.
//
// Spatial packing: build() orders the training points by a k-d split —
// at each node, a selection on the cell's widest side cuts the points at
// a multiple of kTile — so every tile holds one compact cell of the
// space, and records each tile's per-dimension [lo, hi] bounding box
// plus the slot -> training-index map. A query computes every tile's box lower
// bound sum_j max(0, lo_j - q_j, q_j - hi_j)^2, scans the lowest-bound
// tile first, then skips each tile whose bound exceeds the current k-th
// distance. The paper's classes are compact clusters in the projected
// plane (Figure 3), so an in-cluster query scans a handful of tiles.
// The prune is exact without any slack: for lo <= x, fl(lo - q) <=
// fl(x - q), and rounded squaring and the ascending-feature sum are
// monotone too, so the bound never exceeds a computed distance in the
// tile. Hits carry the original training index, so ties break toward
// the lower index whatever order the tiles are visited in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/class_label.hpp"
#include "linalg/matrix.hpp"

namespace appclass::engine {

/// A batch of query points in the kernel's own feature-major SoA layout:
/// feature j of query i lives at data()[j * stride() + i]. Producers
/// (the pipeline's batched normalize+project stage) write straight into
/// this layout, so the kernel consumes query points without any
/// per-snapshot repacking or per-query allocation. Grow-only: reset()
/// reuses the backing store across batches once it has seen the largest
/// batch.
class QueryBlock {
 public:
  /// Prepares the block for `count` points of `dims` features. Contents
  /// are unspecified until every point is written.
  void reset(std::size_t dims, std::size_t count) {
    dims_ = dims;
    count_ = count;
    if (count > capacity_) capacity_ = count;
    if (data_.size() < dims_ * capacity_) data_.resize(dims_ * capacity_);
  }

  std::size_t dims() const noexcept { return dims_; }
  std::size_t count() const noexcept { return count_; }
  /// Distance (in doubles) between consecutive features of one point.
  std::size_t stride() const noexcept { return capacity_; }

  /// Base of point i: feature j at point(i)[j * stride()].
  double* point(std::size_t i) noexcept { return data_.data() + i; }
  const double* point(std::size_t i) const noexcept {
    return data_.data() + i;
  }

  double at(std::size_t i, std::size_t j) const noexcept {
    return data_[j * capacity_ + i];
  }

 private:
  std::vector<double> data_;  ///< [dims_][capacity_] feature-major
  std::size_t dims_ = 0;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;
};

class BlockedKnnIndex {
 public:
  /// Points per tile: 256 doubles = 2 KiB per feature column slice, so a
  /// tile of the paper's 2-D projected space lives in L1.
  static constexpr std::size_t kTile = 256;

  /// One neighbour candidate: squared Euclidean distance and the
  /// training-point index.
  struct Hit {
    double distance = 0.0;
    std::uint32_t index = 0;
  };

  /// Outcome of the majority vote over the k hits.
  struct Vote {
    core::ApplicationClass label = core::ApplicationClass::kIdle;
    double share = 0.0;  ///< winning votes / k, in (0, 1]
  };

  /// Per-thread scratch reused across queries (tile accumulators + the
  /// k-slot selection array). Cheap to default-construct; sized lazily.
  struct Scratch {
    std::vector<double> acc;
    std::vector<Hit> hits;
    /// Per-8-candidate chunk minima of `acc`, filled by the scan so its
    /// selection loop can skip whole chunks (see top_k_scan).
    std::vector<double> chunk_mins;
    /// Per-tile box lower bounds of the current query.
    std::vector<double> bounds;
    /// Tiles skipped by the bounding-box prune since construction (or the
    /// caller's last reset); accumulates across queries so shard spans
    /// can report prune effectiveness.
    std::uint64_t pruned_tiles = 0;
  };

  BlockedKnnIndex() = default;

  /// Copies `points` (row-major, one training point per row) into the
  /// blocked SoA layout, packed into k-d tiles. Hits still report the
  /// row of `points`. `k` is clamped to the point count at query time.
  void build(const linalg::Matrix& points,
             std::vector<core::ApplicationClass> labels, std::size_t k);

  bool built() const noexcept { return !labels_.empty(); }
  std::size_t size() const noexcept { return labels_.size(); }
  std::size_t dimension() const noexcept { return dims_; }
  std::size_t k() const noexcept { return k_; }
  std::span<const core::ApplicationClass> labels() const noexcept {
    return labels_;
  }

  /// The k nearest training points of `q`, ascending (distance, index);
  /// the returned span lives in `scratch`.
  std::span<const Hit> top_k(std::span<const double> q,
                             Scratch& scratch) const;

  /// Same query, reading point `i` of a feature-major QueryBlock in
  /// place (stride = block.stride()). This is the batched-ingest entry
  /// point; it runs the same scan as the span overload, so the two are
  /// bit-identical on the same coordinates.
  std::span<const Hit> top_k(const QueryBlock& block, std::size_t i,
                             Scratch& scratch) const;

  /// Majority vote over hits; ties break by summed inverse rank (nearer
  /// neighbours win), matching the seed classifier.
  Vote vote(std::span<const Hit> hits) const;

 private:
  /// The one top-k scan behind both overloads: feature j of the query at
  /// q[j * qstride]. Tiles are visited nearest box first, and skipped
  /// when their box bound exceeds the current k-th distance; within a
  /// tile the selection sweep tests 8-candidate chunks against it before
  /// touching the insertion loop. Only provably-skippable work is
  /// skipped, so the hits are exactly the k lexicographically smallest
  /// (distance, index) pairs.
  std::span<const Hit> top_k_scan(const double* q, std::size_t qstride,
                                  Scratch& scratch) const;
  /// Squared distances of slots [t0, t0+width) into scratch.acc. The
  /// first feature stores rather than adding into a zeroed accumulator
  /// (0 + term == term for the non-negative per-feature terms, so the
  /// results are bit-identical to the ascending-feature sum).
  void tile_distances(const double* q, std::size_t qstride, std::size_t t0,
                      std::size_t width, std::vector<double>& acc) const;

  std::size_t dims_ = 0;
  std::size_t k_ = 3;
  std::size_t padded_ = 0;        ///< point count rounded up to kTile
  std::size_t tiles_ = 0;         ///< padded_ / kTile
  std::vector<double> features_;  ///< [dims_][padded_], slot order
  std::vector<std::uint32_t> slot_index_;  ///< slot -> training index
  std::vector<double> box_lo_;    ///< [dims_][tiles_] per-tile minima
  std::vector<double> box_hi_;    ///< [dims_][tiles_] per-tile maxima
  std::vector<core::ApplicationClass> labels_;  ///< training-index order
};

/// The seed's scalar query path, preserved verbatim as the ground truth
/// for kernel tests and the baseline for bench/engine_throughput: per
/// query, allocate an n-entry (distance, index) vector, fill it with
/// span-based distance calls over the row-major matrix, partial_sort.
std::vector<BlockedKnnIndex::Hit> reference_top_k(
    const linalg::Matrix& points, std::span<const double> q, std::size_t k);

}  // namespace appclass::engine
