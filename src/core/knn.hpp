// k-Nearest-Neighbor classifier (paper section 4.2.3).
//
// Brute-force k-NN under Euclidean distance with majority vote over the
// k closest training points; ties break toward the class of the nearer
// neighbors (summed inverse ranks), matching the "odd k" convention the
// paper uses to avoid most ties in the first place (k = 3).
//
// The classifier is a thin policy layer over the blocked structure-of-
// arrays kernel in engine/knn_kernel.hpp: training builds the SoA index,
// and `query(points, QueryOptions)` answers every question (labels, vote
// shares, neighbor indices, novelty distances) in one pass. query() is
// the only query surface.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/class_label.hpp"
#include "engine/knn_kernel.hpp"
#include "linalg/matrix.hpp"

namespace appclass::core {

struct KnnOptions {
  std::size_t k = 3;
};

/// What a query should materialize besides the labels. Each extra output
/// is filled only when requested, so the hot path (labels only) never
/// pays for diagnostics.
struct QueryOptions {
  /// Winning-class vote share per query point (the cheap per-snapshot
  /// confidence; 1.0 = unanimous neighbourhood).
  bool vote_shares = false;
  /// The k nearest training indices per query point, nearest first.
  bool neighbors = false;
  /// Euclidean distance to the single nearest training point — the
  /// novelty score (large = resembles no trained behaviour).
  bool novelty = false;
};

/// Batch answer: index i of every filled vector describes query row i.
struct QueryResult {
  std::size_t count = 0;          ///< number of query points answered
  std::size_t neighbors_per_query = 0;  ///< min(k, training size) if requested
  std::vector<ApplicationClass> labels;  ///< always filled
  std::vector<double> vote_shares;       ///< iff QueryOptions::vote_shares
  /// Flattened count x neighbors_per_query, nearest first
  /// (iff QueryOptions::neighbors).
  std::vector<std::size_t> neighbor_indices;
  std::vector<double> novelty;           ///< iff QueryOptions::novelty

  /// Neighbor `rank` (0 = nearest) of query point `query`.
  std::size_t neighbor(std::size_t query, std::size_t rank) const {
    return neighbor_indices[query * neighbors_per_query + rank];
  }
};

class KnnClassifier {
 public:
  explicit KnnClassifier(KnnOptions options = {});

  /// Stores the training set (row i of `points` has label `labels[i]`)
  /// and builds the blocked SoA index over it.
  void train(linalg::Matrix points, std::vector<ApplicationClass> labels);

  bool trained() const noexcept { return !labels_.empty(); }
  std::size_t training_size() const noexcept { return labels_.size(); }
  std::size_t dimension() const;
  std::size_t k() const noexcept { return options_.k; }

  /// THE query entry point: answers every row of `points` in one pass,
  /// filling exactly the outputs `options` requests.
  QueryResult query(const linalg::Matrix& points,
                    const QueryOptions& options = {}) const;

  /// Single-point convenience: every output vector has one entry.
  QueryResult query(std::span<const double> point,
                    const QueryOptions& options = {}) const;

  /// Sharded execution support (the engine's path): allocates a result
  /// whose vectors are pre-sized for `count` queries...
  QueryResult make_result(std::size_t count,
                          const QueryOptions& options) const;
  /// ...and answers rows [begin, end) of `points` into their slots of
  /// `out`. Distinct shards write disjoint slots, so concurrent calls
  /// with one Scratch per caller are safe and the assembled result is
  /// bit-identical to a serial query() — shard boundaries cannot affect
  /// per-row arithmetic.
  void query_rows(const linalg::Matrix& points, std::size_t begin,
                  std::size_t end, const QueryOptions& options,
                  QueryResult& out,
                  engine::BlockedKnnIndex::Scratch& scratch) const;

  const linalg::Matrix& training_points() const noexcept { return points_; }
  std::span<const ApplicationClass> training_labels() const noexcept {
    return labels_;
  }

  /// The underlying blocked SoA index (bench and diagnostics).
  const engine::BlockedKnnIndex& index() const noexcept { return index_; }

 private:
  KnnOptions options_;
  linalg::Matrix points_;  // row-major original (accessors, serialization)
  std::vector<ApplicationClass> labels_;
  engine::BlockedKnnIndex index_;
};

}  // namespace appclass::core
