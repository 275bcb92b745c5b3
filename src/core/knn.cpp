#include "core/knn.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace appclass::core {

KnnClassifier::KnnClassifier(KnnOptions options) : options_(options) {
  APPCLASS_EXPECTS(options_.k >= 1);
  APPCLASS_EXPECTS(options_.k % 2 == 1);  // odd k, per the paper
}

void KnnClassifier::train(linalg::Matrix points,
                          std::vector<ApplicationClass> labels) {
  APPCLASS_EXPECTS(points.rows() == labels.size());
  APPCLASS_EXPECTS(points.rows() >= options_.k);
  points_ = std::move(points);
  labels_ = std::move(labels);
  index_.build(points_, labels_, options_.k);
}

std::size_t KnnClassifier::dimension() const {
  APPCLASS_EXPECTS(trained());
  return points_.cols();
}

QueryResult KnnClassifier::make_result(std::size_t count,
                                       const QueryOptions& options) const {
  APPCLASS_EXPECTS(trained());
  QueryResult out;
  out.count = count;
  out.labels.resize(count);
  if (options.vote_shares) out.vote_shares.resize(count);
  if (options.neighbors) {
    out.neighbors_per_query = std::min(options_.k, labels_.size());
    out.neighbor_indices.resize(count * out.neighbors_per_query);
  }
  if (options.novelty) out.novelty.resize(count);
  return out;
}

void KnnClassifier::query_rows(
    const linalg::Matrix& points, std::size_t begin, std::size_t end,
    const QueryOptions& options, QueryResult& out,
    engine::BlockedKnnIndex::Scratch& scratch) const {
  APPCLASS_EXPECTS(trained());
  APPCLASS_EXPECTS(points.cols() == points_.cols());
  APPCLASS_EXPECTS(begin <= end && end <= points.rows());
  APPCLASS_EXPECTS(end <= out.count);
  for (std::size_t r = begin; r < end; ++r) {
    const auto hits = index_.top_k(points.row(r), scratch);
    const auto vote = index_.vote(hits);
    out.labels[r] = vote.label;
    if (options.vote_shares) out.vote_shares[r] = vote.share;
    if (options.neighbors) {
      for (std::size_t j = 0; j < out.neighbors_per_query; ++j)
        out.neighbor_indices[r * out.neighbors_per_query + j] =
            hits[j].index;
    }
    // hits are ascending, so hits[0] already holds the global minimum
    // squared distance — no second scan.
    if (options.novelty) out.novelty[r] = std::sqrt(hits[0].distance);
  }
}

QueryResult KnnClassifier::query(const linalg::Matrix& points,
                                 const QueryOptions& options) const {
  QueryResult out = make_result(points.rows(), options);
  engine::BlockedKnnIndex::Scratch scratch;
  query_rows(points, 0, points.rows(), options, out, scratch);
  return out;
}

QueryResult KnnClassifier::query(std::span<const double> point,
                                 const QueryOptions& options) const {
  QueryResult out = make_result(1, options);
  thread_local engine::BlockedKnnIndex::Scratch scratch;
  const linalg::Matrix one =
      linalg::Matrix::from_rows(1, point.size(),
                                {point.begin(), point.end()});
  query_rows(one, 0, 1, options, out, scratch);
  return out;
}

}  // namespace appclass::core
