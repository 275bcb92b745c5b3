#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "common/assert.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::core {
namespace {

/// Stage histograms and counters, resolved once per process so the hot
/// path never touches the registry lock.
struct PipelineMetrics {
  obs::Histogram& preprocess = obs::stage_histogram("preprocess");
  obs::Histogram& pca_fit = obs::stage_histogram("pca_fit");
  obs::Histogram& pca_project = obs::stage_histogram("pca_project");
  obs::Histogram& knn_query = obs::stage_histogram("knn_query");
  obs::Histogram& vote = obs::stage_histogram("vote");
  /// Wall time of one engine shard (PCA-projection or k-NN slice); its
  /// count exposes how many shards a run actually fanned out.
  obs::Histogram& shard = obs::stage_histogram("engine_shard");
  obs::Counter& trains = obs::MetricsRegistry::global().counter(
      "appclass_pipeline_train_total");
  obs::Counter& pools = obs::MetricsRegistry::global().counter(
      "appclass_pipeline_classify_pools_total");
  obs::Counter& snapshots = obs::MetricsRegistry::global().counter(
      "appclass_pipeline_snapshots_classified_total");
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

/// The pca_project stage: projects `normalized` one engine shard at a
/// time, each shard under its own engine_shard span.
linalg::Matrix project_sharded(const engine::ExecutionContext& context,
                               const Pca& pca,
                               const linalg::Matrix& normalized) {
  PipelineMetrics& pm = pipeline_metrics();
  obs::TraceSpan stage_span("pca_project", &pm.pca_project);
  linalg::Matrix projected(normalized.rows(), pca.components());
  context.for_shards(
      normalized.rows(), engine::kDefaultGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        obs::TraceSpan shard_span("engine_shard", &pm.shard);
        if (shard_span.recording()) {
          shard_span.add_attr({"stage", "pca_project"});
          shard_span.add_attr({"begin", begin});
          shard_span.add_attr({"end", end});
        }
        pca.transform_rows(normalized, begin, end, projected);
      });
  return projected;
}

/// The vote evidence both detailed paths report for one snapshot's k
/// nearest hits: label, winning share, margin and novelty distance.
void set_vote_evidence(const engine::BlockedKnnIndex& index,
                       std::span<const engine::BlockedKnnIndex::Hit> hits,
                       const engine::BlockedKnnIndex::Vote& vote,
                       SnapshotClassification& out) {
  out.label = vote.label;
  out.confidence = vote.share;

  // Margin: winner minus runner-up vote count over k. Unanimous = 1.
  std::array<int, kClassCount> votes{};
  for (const auto& hit : hits) ++votes[index_of(index.labels()[hit.index])];
  const int winner = votes[index_of(vote.label)];
  int runner_up = 0;
  for (std::size_t c = 0; c < kClassCount; ++c) {
    if (c == index_of(vote.label)) continue;
    runner_up = std::max(runner_up, votes[c]);
  }
  out.vote_margin = static_cast<double>(winner - runner_up) /
                    static_cast<double>(hits.size());

  // Hits are ascending by squared Euclidean distance.
  out.novelty = std::sqrt(hits.front().distance);
}

}  // namespace

double ClassificationResult::mean_confidence() const {
  if (confidences.empty()) return 0.0;
  double sum = 0.0;
  for (const double c : confidences) sum += c;
  return sum / static_cast<double>(confidences.size());
}

double ClassificationResult::novel_fraction() const {
  if (novelty_threshold <= 0.0 || novelty.empty()) return 0.0;
  std::size_t novel = 0;
  for (const double d : novelty)
    if (d > novelty_threshold) ++novel;
  return static_cast<double>(novel) / static_cast<double>(novelty.size());
}

namespace {

/// Scratch slots beyond the workers: the cooperative caller inside
/// parallel_for plus headroom for a few independent caller threads
/// before acquire() falls back to overflow allocation.
constexpr std::size_t kScratchCallerSlots = 4;

}  // namespace

SnapshotScratchPool::SnapshotScratchPool(std::size_t slots)
    : slots_(std::max<std::size_t>(slots, 1)) {}

SnapshotScratchPool::Lease::Lease(Lease&& other) noexcept
    : pool_(other.pool_),
      slot_(other.slot_),
      overflow_(std::move(other.overflow_)),
      scratch_(other.scratch_) {
  other.pool_ = nullptr;
  other.scratch_ = nullptr;
}

SnapshotScratchPool::Lease::~Lease() {
  if (pool_ != nullptr)
    pool_->slots_[slot_].busy.store(false, std::memory_order_release);
}

SnapshotScratchPool::Lease SnapshotScratchPool::acquire() {
  // One probe hits a worker's own warm slot in the common case; the scan
  // only proceeds under slot-hint collisions (several non-pool threads).
  const std::size_t hint = engine::current_worker_slot() % slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::size_t idx = (hint + i) % slots_.size();
    bool expected = false;
    if (slots_[idx].busy.compare_exchange_strong(
            expected, true, std::memory_order_acquire,
            std::memory_order_relaxed))
      return Lease(this, idx, &slots_[idx].scratch);
  }
  overflows_.fetch_add(1, std::memory_order_relaxed);
  return Lease(std::make_unique<SnapshotScratch>());
}

ClassificationPipeline::ClassificationPipeline(PipelineOptions options)
    : options_(options),
      preprocessor_(options.selected_metrics.empty()
                        ? Preprocessor{}
                        : Preprocessor{options.selected_metrics}),
      pca_(options.pca),
      knn_(options.knn),
      context_(engine::ExecutionContext::make(options.parallelism)),
      scratch_pool_(std::make_shared<SnapshotScratchPool>(
          context_->parallelism() + kScratchCallerSlots)) {}

void ClassificationPipeline::set_parallelism(std::size_t parallelism) {
  options_.parallelism = parallelism;
  context_ = engine::ExecutionContext::make(parallelism);
  scratch_pool_ = std::make_shared<SnapshotScratchPool>(
      context_->parallelism() + kScratchCallerSlots);
}

void ClassificationPipeline::train(const std::vector<LabeledPool>& training) {
  APPCLASS_EXPECTS(!training.empty());
  PipelineMetrics& pm = pipeline_metrics();

  obs::TraceSpan root_span("train");
  root_span.add_attr({"pools", training.size()});
  root_span.add_attr({"parallelism", context_->parallelism()});

  // Extract the raw selected metrics of every training pool — one task
  // per pool on the context — then stack them serially in pool order, so
  // the training matrix is independent of the thread count.
  linalg::Matrix normalized;
  std::vector<ApplicationClass> labels;
  {
    obs::TraceSpan stage_span("preprocess", &pm.preprocess);
    std::vector<linalg::Matrix> raws(training.size());
    context_->for_each(training.size(), [&](std::size_t p) {
      APPCLASS_EXPECTS(!training[p].pool.empty());
      raws[p] = preprocessor_.extract(training[p].pool);
    });
    linalg::Matrix stacked;
    for (std::size_t p = 0; p < training.size(); ++p) {
      for (std::size_t r = 0; r < raws[p].rows(); ++r) {
        stacked.append_row(raws[p].row(r));
        labels.push_back(training[p].label);
      }
    }

    preprocessor_.fit(stacked);
    normalized = preprocessor_.transform(stacked);
  }

  {
    obs::TraceSpan stage_span("pca_fit", &pm.pca_fit);
    pca_.fit(normalized);
  }

  knn_.train(project_sharded(*context_, pca_, normalized), std::move(labels));
  trained_ = true;
  pm.trains.inc();
  APPCLASS_LOG_INFO("pipeline.train",
                    {"training_snapshots", knn_.training_size()},
                    {"input_dims", pca_.input_dimension()},
                    {"components", pca_.components()},
                    {"captured_variance", pca_.captured_variance()},
                    {"parallelism", context_->parallelism()});
}

ClassificationPipeline ClassificationPipeline::restore(
    Preprocessor preprocessor, Pca pca, KnnClassifier knn) {
  APPCLASS_EXPECTS(preprocessor.fitted());
  APPCLASS_EXPECTS(pca.fitted());
  APPCLASS_EXPECTS(knn.trained());
  APPCLASS_EXPECTS(pca.input_dimension() == preprocessor.dimension());
  APPCLASS_EXPECTS(knn.dimension() == pca.components());
  ClassificationPipeline pipeline;
  pipeline.preprocessor_ = std::move(preprocessor);
  pipeline.pca_ = std::move(pca);
  pipeline.knn_ = std::move(knn);
  pipeline.trained_ = true;
  return pipeline;
}

ClassificationResult ClassificationPipeline::classify(
    const metrics::DataPool& pool) const {
  APPCLASS_EXPECTS(trained_);
  APPCLASS_EXPECTS(!pool.empty());
  PipelineMetrics& pm = pipeline_metrics();
  ClassificationResult result;
  result.novelty_threshold = options_.novelty_threshold;

  // Root span of the trace: one classified pool. The stage spans below
  // open as its children; the engine_shard spans inside the for_shards
  // lambdas parent to the stage spans even when the pool steals the
  // shard onto another worker (the ThreadPool adopts the submitter's
  // context around every task).
  obs::TraceSpan root_span("classify");
  if (root_span.recording()) {
    root_span.add_attr({"node_ip", pool.node_ip()});
    root_span.add_attr({"snapshots", pool.size()});
    root_span.add_attr({"parallelism", context_->parallelism()});
  }

  linalg::Matrix normalized;
  {
    obs::TraceSpan stage_span("preprocess", &pm.preprocess);
    normalized = preprocessor_.transform(pool);
  }

  const std::size_t m = normalized.rows();

  result.projected = project_sharded(*context_, pca_, normalized);

  // Sharded k-NN: every shard answers its rows into pre-sized slots with
  // its own kernel scratch; one clock pair for the whole fan-out, the
  // histogram charged the mean per snapshot.
  const QueryOptions query_options{
      .vote_shares = true,
      .neighbors = false,
      .novelty = options_.novelty_threshold > 0.0};
  QueryResult queries = knn_.make_result(m, query_options);
  {
    obs::TraceSpan stage_span("knn_query", &pm.knn_query);
    if (stage_span.recording()) {
      stage_span.add_attr({"k", knn_.k()});
      stage_span.add_attr({"training_size", knn_.training_size()});
    }
    context_->for_shards(
        m, engine::kDefaultGrain,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          obs::TraceSpan shard_span("engine_shard", &pm.shard);
          // Pooled per-worker scratch: each shard leases the slot warmed
          // by previous shards on the same worker instead of sizing a
          // fresh one.
          auto scratch = scratch_pool_->acquire();
          const std::uint64_t pruned_before = scratch->kernel.pruned_tiles;
          knn_.query_rows(result.projected, begin, end, query_options,
                          queries, scratch->kernel);
          shard_span.stop();
          if (shard_span.recording()) {
            shard_span.add_attr({"stage", "knn_query"});
            shard_span.add_attr({"begin", begin});
            shard_span.add_attr({"end", end});
            shard_span.add_attr(
                {"pruned_tiles",
                 scratch->kernel.pruned_tiles - pruned_before});
          }
        });
    stage_span.stop_per_item(m);
  }

  {
    obs::TraceSpan stage_span("vote", &pm.vote);
    result.class_vector = std::move(queries.labels);
    result.confidences = std::move(queries.vote_shares);
    result.novelty = std::move(queries.novelty);
    result.composition = ClassComposition(result.class_vector);
    result.application_class = result.composition.dominant();
    stage_span.stop();
    if (stage_span.recording()) {
      // Margin of the winning class over the runner-up in the class
      // composition — a 0-margin pool sat on a vote knife edge.
      double top = 0.0;
      double second = 0.0;
      for (const double f : result.composition.fractions()) {
        if (f > top) {
          second = top;
          top = f;
        } else if (f > second) {
          second = f;
        }
      }
      stage_span.add_attr({"vote_margin", top - second});
    }
  }

  pm.pools.inc();
  pm.snapshots.inc(m);
  APPCLASS_LOG_DEBUG("pipeline.classify", {"snapshots", m},
                     {"class", to_string(result.application_class)},
                     {"mean_confidence", result.mean_confidence()});
  return result;
}

ApplicationClass ClassificationPipeline::classify(
    const metrics::Snapshot& snapshot) const {
  APPCLASS_EXPECTS(trained_);
  // Online hot path: a single relaxed counter increment (a few ns) — the
  // stage wall-time histograms come from the batch path, keeping the
  // per-snapshot latency unperturbed. The query goes straight to the
  // blocked kernel with thread-local scratch — no per-query result
  // allocation, same arithmetic as query().
  pipeline_metrics().snapshots.inc();
  auto scratch = scratch_pool_->acquire();
  scratch->row.resize(preprocessor_.dimension());
  preprocessor_.transform_into(snapshot, scratch->row);
  scratch->projected.resize(pca_.components());
  pca_.transform_into(scratch->row, scratch->projected.data(), 1);
  const engine::BlockedKnnIndex& index = knn_.index();
  return index.vote(index.top_k(scratch->projected, scratch->kernel)).label;
}

SnapshotClassification ClassificationPipeline::classify_detailed(
    const metrics::Snapshot& snapshot) const {
  APPCLASS_EXPECTS(trained_);
  // Identical arithmetic to classify(snapshot) — same transform chain,
  // same kernel, same vote — plus the evidence the vote already holds:
  // the hits carry the margin and novelty distance, the projection is
  // the drift-detector feed.
  pipeline_metrics().snapshots.inc();
  SnapshotClassification out;
  out.projected = pca_.transform(preprocessor_.transform(snapshot));
  auto scratch = scratch_pool_->acquire();
  const engine::BlockedKnnIndex& index = knn_.index();
  const auto hits = index.top_k(out.projected, scratch->kernel);
  set_vote_evidence(index, hits, index.vote(hits), out);
  return out;
}

void ClassificationPipeline::begin_snapshot_batch(SnapshotBatch& batch,
                                                  std::size_t count,
                                                  bool detailed) const {
  APPCLASS_EXPECTS(trained_);
  // One batched bump of the same counter classify(snapshot) ticks per
  // call — identical totals, no per-snapshot atomic on the drain path.
  pipeline_metrics().snapshots.inc(count);
  batch.queries_.reset(pca_.components(), count);
  // Grow-only: shrinking would free the details' projected vectors and
  // reintroduce per-drain allocation; count_ bounds the valid range.
  if (batch.labels_.size() < count) batch.labels_.resize(count);
  if (detailed && batch.details_.size() < count) batch.details_.resize(count);
  batch.count_ = count;
  batch.detailed_ = detailed;
}

void ClassificationPipeline::classify_snapshot_into(
    const metrics::Snapshot& snapshot, SnapshotBatch& batch, std::size_t i,
    SnapshotScratch& scratch) const {
  APPCLASS_EXPECTS(trained_);
  APPCLASS_EXPECTS(i < batch.count_);
  // Same transform chain, kernel arithmetic, and vote as
  // classify(snapshot) / classify_detailed(snapshot) — the query point
  // just lands in the batch's SoA block (strided) instead of a dense
  // temporary, which cannot change any per-feature arithmetic. (The
  // snapshot counter was bumped for the whole batch by
  // begin_snapshot_batch.)
  scratch.row.resize(preprocessor_.dimension());
  preprocessor_.transform_into(snapshot, scratch.row);
  pca_.transform_into(scratch.row, batch.queries_.point(i),
                      batch.queries_.stride());

  const engine::BlockedKnnIndex& index = knn_.index();
  const auto hits = index.top_k(batch.queries_, i, scratch.kernel);
  const engine::BlockedKnnIndex::Vote vote = index.vote(hits);
  batch.labels_[i] = vote.label;
  if (!batch.detailed_) return;

  SnapshotClassification& detail = batch.details_[i];
  set_vote_evidence(index, hits, vote, detail);
  detail.projected.resize(pca_.components());
  for (std::size_t j = 0; j < detail.projected.size(); ++j)
    detail.projected[j] = batch.queries_.at(i, j);
}

linalg::Matrix ClassificationPipeline::project(
    const metrics::DataPool& pool) const {
  APPCLASS_EXPECTS(trained_);
  return pca_.transform(preprocessor_.transform(pool));
}

}  // namespace appclass::core
