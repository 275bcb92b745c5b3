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
// Precomputed norms: each point's L2 norm is computed at build time and
// folded into per-tile [min, max] norm bounds. A tile whose whole norm
// range is provably farther than the current k-th best — by the reverse
// triangle inequality |q - x| >= | |q| - |x| | — is skipped without
// touching its features. The bound is slackened by a relative epsilon so
// floating-point rounding can never prune a point the exact scan would
// keep.
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
    /// Tiles skipped by the norm-bound prune since construction (or the
    /// caller's last reset); accumulates across queries so shard spans
    /// can report prune effectiveness.
    std::uint64_t pruned_tiles = 0;
  };

  BlockedKnnIndex() = default;

  /// Copies `points` (row-major, one training point per row) into the
  /// blocked SoA layout. `k` is clamped to the point count at query time.
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
  /// q[j * qstride]. The selection sweep tests 8-candidate chunks against
  /// the current k-th distance before touching the insertion loop; only
  /// provably-skippable work is skipped, so the hits are exactly the k
  /// lexicographically smallest (distance, index) pairs.
  std::span<const Hit> top_k_scan(const double* q, std::size_t qstride,
                                  Scratch& scratch) const;
  /// Squared distances of points [t0, t0+width) into scratch.acc. The
  /// first feature stores rather than adding into a zeroed accumulator
  /// (0 + term == term for the non-negative per-feature terms, so the
  /// results are bit-identical to the ascending-feature sum).
  void tile_distances(const double* q, std::size_t qstride, std::size_t t0,
                      std::size_t width, std::vector<double>& acc) const;
  /// Reverse-triangle-inequality lower bound of tile t for a query of
  /// norm `qnorm`, squared like the distances and slackened for FP
  /// safety; 0 when the tile cannot be pruned.
  double tile_lower_bound(std::size_t t, double qnorm) const;
  double query_norm(const double* q, std::size_t qstride) const;

  std::size_t dims_ = 0;
  std::size_t k_ = 3;
  std::size_t padded_ = 0;           ///< point count rounded up to kTile
  std::vector<double> features_;     ///< [dims_][padded_] feature-major
  std::vector<double> tile_min_norm_;  ///< per tile, unsquared L2 norms
  std::vector<double> tile_max_norm_;
  std::vector<core::ApplicationClass> labels_;
};

/// The seed's scalar query path, preserved verbatim as the ground truth
/// for kernel tests and the baseline for bench/engine_throughput: per
/// query, allocate an n-entry (distance, index) vector, fill it with
/// span-based distance calls over the row-major matrix, partial_sort.
std::vector<BlockedKnnIndex::Hit> reference_top_k(
    const linalg::Matrix& points, std::span<const double> q, std::size_t k);

}  // namespace appclass::engine
