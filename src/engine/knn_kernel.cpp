#include "engine/knn_kernel.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "engine/knn_block_tiles.hpp"

namespace appclass::engine {
namespace {

/// A training point's coordinate on the current split axis, beside its
/// index, so the selection below moves 16 contiguous bytes per element.
struct Keyed {
  double key;
  std::uint32_t index;
};

/// Moves the elements of [first, last) whose key satisfies `pred` to the
/// front and returns the end of that run. Branch-free (the comparisons
/// of a random split mispredict half the time): the element at `lt` is
/// always moved into the gap left by the previous one, whatever the
/// comparison says, and `lt` advances by the comparison's result.
template <class Pred>
Keyed* partition_keys(Keyed* first, Keyed* last, Pred pred) {
  if (first == last) return first;
  const Keyed saved = *first;
  Keyed* gap = first;
  Keyed* lt = first;
  for (Keyed* r = first + 1; r != last; ++r) {
    const bool below = pred(r->key);
    *gap = *lt;
    *lt = *r;
    gap = r;
    lt += below;
  }
  *gap = *lt;
  *lt = saved;
  return lt + pred(saved.key);
}

/// std::nth_element by key, with the pivot taken from a sample near the
/// target rank rather than a median of three: two or three partitions
/// then bracket the target instead of halving towards it, so the k-d
/// packing touches each point under twice per level. Progress is
/// guaranteed (the pivot is one of the keys, and a pivot that is the
/// range minimum peels off its equal keys); after 64 rounds, or below
/// 64 elements, std::nth_element finishes the job.
void select_key(Keyed* first, Keyed* nth, Keyed* last) {
  constexpr std::ptrdiff_t kSample = 32;
  for (int round = 0; round < 64 && last - first > 64; ++round) {
    const std::ptrdiff_t n = last - first;
    std::array<double, kSample> sample;
    for (std::ptrdiff_t i = 0; i < kSample; ++i)
      sample[static_cast<std::size_t>(i)] =
          first[(2 * i + 1) * n / (2 * kSample)].key;
    // Two sample ranks past the target, on the side away from the
    // nearer end, so the target usually lands in the smaller part.
    const std::ptrdiff_t at = (nth - first) * kSample / n;
    const auto r = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
        2 * (nth - first) < n ? at + 2 : at - 2, 0, kSample - 1));
    std::nth_element(sample.begin(), sample.begin() + r, sample.end());
    const double pivot = sample[r];
    Keyed* const lt =
        partition_keys(first, last, [pivot](double k) { return k < pivot; });
    if (nth < lt) {
      last = lt;
    } else if (lt != first) {
      first = lt;
    } else {
      Keyed* const le = partition_keys(
          first, last, [pivot](double k) { return !(pivot < k); });
      if (nth < le) return;
      first = le;
    }
  }
  std::nth_element(first, nth, last, [](const Keyed& a, const Keyed& b) {
    return a.key < b.key;
  });
}

/// Reorders order[0, count) into k-d cells of kTile points: cuts at the
/// largest tile multiple not above half the range, on the widest side of
/// the cell `box` ([lo_0, hi_0, lo_1, hi_1, ...]), and recurses into both
/// halves with the box clipped at the cut. `rows` is the row-major
/// training matrix.
void pack_cells(Keyed* order, std::size_t count, const double* rows,
                std::size_t dims, std::vector<double> box) {
  constexpr std::size_t tile = BlockedKnnIndex::kTile;
  const std::size_t tiles = (count + tile - 1) / tile;
  if (tiles < 2) return;
  std::size_t axis = 0;
  for (std::size_t j = 1; j < dims; ++j)
    if (box[2 * j + 1] - box[2 * j] > box[2 * axis + 1] - box[2 * axis])
      axis = j;
  for (std::size_t i = 0; i < count; ++i)
    order[i].key = rows[order[i].index * dims + axis];
  const std::size_t mid = tiles / 2 * tile;
  select_key(order, order + mid, order + count);
  std::vector<double> upper = box;
  box[2 * axis + 1] = order[mid].key;
  upper[2 * axis] = order[mid].key;
  pack_cells(order, mid, rows, dims, std::move(box));
  pack_cells(order + mid, count - mid, rows, dims, std::move(upper));
}

}  // namespace

void BlockedKnnIndex::build(const linalg::Matrix& points,
                            std::vector<core::ApplicationClass> labels,
                            std::size_t k) {
  APPCLASS_EXPECTS(points.rows() == labels.size());
  APPCLASS_EXPECTS(points.rows() >= 1);
  APPCLASS_EXPECTS(points.cols() >= 1);
  APPCLASS_EXPECTS(points.rows() <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t n = points.rows();
  dims_ = points.cols();
  k_ = k;
  labels_ = std::move(labels);
  padded_ = (n + kTile - 1) / kTile * kTile;
  tiles_ = padded_ / kTile;

  std::vector<Keyed> order(n);
  for (std::size_t i = 0; i < n; ++i)
    order[i] = {0.0, static_cast<std::uint32_t>(i)};
  const double* const rows = points.data().data();
  std::vector<double> box(2 * dims_);
  for (std::size_t j = 0; j < dims_; ++j) {
    double lo = rows[j];
    double hi = lo;
    for (std::size_t i = 1; i < n; ++i) {
      const double v = rows[i * dims_ + j];
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
    }
    box[2 * j] = lo;
    box[2 * j + 1] = hi;
  }
  pack_cells(order.data(), n, rows, dims_, std::move(box));

  // Feature-major copy in slot order: feature j of slot s at
  // features_[j * padded_ + s].
  slot_index_.resize(n);
  features_.assign(dims_ * padded_, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t i = order[s].index;
    slot_index_[s] = i;
    for (std::size_t j = 0; j < dims_; ++j)
      features_[j * padded_ + s] = rows[i * dims_ + j];
  }

  // Per-tile bounding boxes over the real (unpadded) slots.
  box_lo_.resize(dims_ * tiles_);
  box_hi_.resize(dims_ * tiles_);
  for (std::size_t j = 0; j < dims_; ++j) {
    const double* const col = features_.data() + j * padded_;
    for (std::size_t t = 0; t < tiles_; ++t) {
      const std::size_t t0 = t * kTile;
      const std::size_t t1 = std::min(t0 + kTile, n);
      double lo = col[t0];
      double hi = col[t0];
      for (std::size_t s = t0 + 1; s < t1; ++s) {
        lo = col[s] < lo ? col[s] : lo;
        hi = col[s] > hi ? col[s] : hi;
      }
      box_lo_[j * tiles_ + t] = lo;
      box_hi_[j * tiles_ + t] = hi;
    }
  }
}

void BlockedKnnIndex::tile_distances(const double* q, std::size_t qstride,
                                     std::size_t t0, std::size_t width,
                                     std::vector<double>& acc) const {
  // Vectorizes across the tile's points through the blocktiles
  // primitives; each point's accumulator sees features in ascending
  // order — the exact summation order of linalg::squared_distance. The
  // query's stride only changes where feature j is loaded from, never
  // the arithmetic.
  double* const a = acc.data();
  if (dims_ == 2) {
    blocktiles::sq_pair(features_.data() + t0, features_.data() + padded_ + t0,
                        q[0], q[qstride], a, width);
    return;
  }
  blocktiles::sq_first(features_.data() + t0, q[0], a, width);
  for (std::size_t j = 1; j < dims_; ++j)
    blocktiles::sq_accumulate(features_.data() + j * padded_ + t0,
                              q[j * qstride], a, width);
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k(
    std::span<const double> q, Scratch& scratch) const {
  APPCLASS_EXPECTS(q.size() == dims_);
  return top_k_scan(q.data(), 1, scratch);
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k(
    const QueryBlock& block, std::size_t i, Scratch& scratch) const {
  APPCLASS_EXPECTS(block.dims() == dims_);
  APPCLASS_EXPECTS(i < block.count());
  return top_k_scan(block.point(i), block.stride(), scratch);
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k_scan(
    const double* q, std::size_t qstride, Scratch& scratch) const {
  APPCLASS_EXPECTS(built());
  const std::size_t n = labels_.size();
  const std::size_t k = std::min(k_, n);
  constexpr std::size_t kChunk = blocktiles::kMinChunk;
  scratch.acc.resize(kTile);
  scratch.chunk_mins.resize(kTile / kChunk);
  scratch.hits.resize(k);
  Hit* const hits = scratch.hits.data();
  std::size_t count = 0;
  // Lexicographic (distance, index) insertion, valid under ANY candidate
  // processing order. reference_top_k's partial_sort over (distance,
  // index) pairs returns exactly the k lexicographically smallest pairs,
  // so maintaining that set directly frees the scan below to visit tiles
  // and chunks in any order and still return bit-identical hits in the
  // same order.
  const auto consider = [&](double d, std::uint32_t idx) {
    if (count == k && (d > hits[k - 1].distance ||
                       (d == hits[k - 1].distance && idx > hits[k - 1].index)))
      return;
    std::size_t pos = count < k ? count : k - 1;
    while (pos > 0 && (d < hits[pos - 1].distance ||
                       (d == hits[pos - 1].distance &&
                        idx < hits[pos - 1].index))) {
      hits[pos] = hits[pos - 1];
      --pos;
    }
    hits[pos] = Hit{d, idx};
    if (count < k) ++count;
  };

  const std::uint32_t* const slot_index = slot_index_.data();
  const auto scan_tile = [&](std::size_t t) {
    const std::size_t t0 = t * kTile;
    const std::size_t width = std::min(kTile, n - t0);
    tile_distances(q, qstride, t0, width, scratch.acc);
    const double* const a = scratch.acc.data();
    const std::uint32_t* const idx = slot_index + t0;
    const std::size_t blocks = width / kChunk;
    if (blocks > 0) {
      // Per-8 minima come from the vectorized sweep TU, near-free next
      // to the distance pass. Seeding from the most promising chunk
      // usually collapses the k-th distance to its final value at once,
      // so the single compare below then discards almost every other
      // chunk wholesale. (A scalar chunk filter in ascending order was
      // measured and lost to the plain scan.)
      double* const mins = scratch.chunk_mins.data();
      blocktiles::chunk_mins(a, width, mins);
      std::size_t best = 0;
      for (std::size_t b = 1; b < blocks; ++b)
        if (mins[b] < mins[best]) best = b;
      const std::size_t b0 = best * kChunk;
      for (std::size_t i = b0; i < b0 + kChunk; ++i) consider(a[i], idx[i]);
      for (std::size_t b = 0; b < blocks; ++b) {
        if (b == best) continue;
        // Strict '>': a chunk whose min ties the k-th distance may hold
        // an equal-distance lower index, which the set does admit.
        if (count == k && mins[b] > hits[k - 1].distance) continue;
        const std::size_t i0 = b * kChunk;
        for (std::size_t i = i0; i < i0 + kChunk; ++i) consider(a[i], idx[i]);
      }
    }
    for (std::size_t i = blocks * kChunk; i < width; ++i)
      consider(a[i], idx[i]);
  };

  if (tiles_ == 1) {
    scan_tile(0);
    return {hits, count};
  }
  // Every tile's box lower bound, summed in the distances' ascending
  // feature order. Nearest box first: its points usually bring the k-th
  // distance down to (near) its final value, so the strict '>' test
  // below skips every tile that cannot hold a closer — or equally close,
  // lower-index — point.
  scratch.bounds.assign(tiles_, 0.0);
  double* const bounds = scratch.bounds.data();
  for (std::size_t j = 0; j < dims_; ++j)
    blocktiles::box_gaps(box_lo_.data() + j * tiles_,
                         box_hi_.data() + j * tiles_, q[j * qstride], bounds,
                         tiles_);
  std::size_t first = 0;
  double nearest = bounds[0];
  for (std::size_t t = 1; t < tiles_; ++t) {
    if (bounds[t] < nearest) {
      nearest = bounds[t];
      first = t;
    }
  }
  scan_tile(first);
  std::uint64_t pruned = 0;
  for (std::size_t t = 0; t < tiles_; ++t) {
    if (t == first) continue;
    if (count == k && bounds[t] > hits[k - 1].distance) {
      ++pruned;
      continue;
    }
    scan_tile(t);
  }
  scratch.pruned_tiles += pruned;
  return {hits, count};
}

BlockedKnnIndex::Vote BlockedKnnIndex::vote(std::span<const Hit> hits) const {
  APPCLASS_EXPECTS(!hits.empty());
  // Majority vote; ties resolved by summed inverse rank (nearer wins) —
  // verbatim the seed classifier's rule.
  std::array<int, core::kClassCount> votes{};
  std::array<double, core::kClassCount> rank_weight{};
  for (std::size_t r = 0; r < hits.size(); ++r) {
    const std::size_t c = core::index_of(labels_[hits[r].index]);
    votes[c] += 1;
    rank_weight[c] += 1.0 / static_cast<double>(r + 1);
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < core::kClassCount; ++c) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] && rank_weight[c] > rank_weight[best]))
      best = c;
  }
  return Vote{core::class_from_index(best),
              static_cast<double>(votes[best]) /
                  static_cast<double>(hits.size())};
}

std::vector<BlockedKnnIndex::Hit> reference_top_k(
    const linalg::Matrix& points, std::span<const double> q, std::size_t k) {
  const std::size_t n = points.rows();
  k = std::min(k, n);
  std::vector<std::pair<double, std::size_t>> dist(n);
  for (std::size_t i = 0; i < n; ++i)
    dist[i] = {linalg::squared_distance(points.row(i), q), i};
  std::partial_sort(dist.begin(),
                    dist.begin() + static_cast<std::ptrdiff_t>(k),
                    dist.end());
  std::vector<BlockedKnnIndex::Hit> out(k);
  for (std::size_t i = 0; i < k; ++i)
    out[i] = {dist[i].first, static_cast<std::uint32_t>(dist[i].second)};
  return out;
}

}  // namespace appclass::engine
