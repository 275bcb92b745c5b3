// Trace-context propagation: span trees across pool workers, bit-identical
// classification with tracing on/off, and histogram exemplars.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core_test_util.hpp"
#include "engine/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace appclass {
namespace {

/// RAII tracing toggle so a failing assertion cannot leave tracing on for
/// the rest of the binary.
struct ScopedTracing {
  ScopedTracing() { obs::set_tracing_enabled(true); }
  ~ScopedTracing() { obs::set_tracing_enabled(false); }
};

const obs::TraceEvent* find_span(const std::vector<obs::TraceEvent>& events,
                                 const std::string& name) {
  for (const auto& e : events)
    if (e.phase == obs::TraceEvent::Phase::kSpan && e.name == name)
      return &e;
  return nullptr;
}

TEST(ObsTrace, SpanTreeAcrossWorkers) {
  // Parallelism 8 over a 600-snapshot pool (grain 256) forces the sharded
  // stages onto pool workers; the span tree must still parent correctly.
  core::PipelineOptions options;
  options.parallelism = 8;
  core::ClassificationPipeline pipeline(options);
  pipeline.train(core::testing::synthetic_training());
  const metrics::DataPool pool =
      core::testing::synthetic_pool(core::ApplicationClass::kIo, 600, 42);

  obs::TraceRecorder::global().clear();
  {
    ScopedTracing tracing;
    (void)pipeline.classify(pool);
  }

  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* root = find_span(events, "classify");
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->context.trace_id, 0u);
  EXPECT_EQ(root->context.parent_span_id, 0u);

  // Every pipeline stage is a direct child of the classify root.
  std::map<std::string, const obs::TraceEvent*> stages;
  for (const char* name : {"preprocess", "pca_project", "knn_query", "vote"}) {
    const obs::TraceEvent* stage = find_span(events, name);
    ASSERT_NE(stage, nullptr) << name;
    EXPECT_EQ(stage->context.trace_id, root->context.trace_id) << name;
    EXPECT_EQ(stage->context.parent_span_id, root->context.span_id) << name;
    stages[name] = stage;
  }

  // Engine shards parent to the sharded stages (pca_project / knn_query),
  // whichever worker — or stolen deque — they actually ran on.
  std::size_t shards = 0;
  for (const auto& e : events) {
    if (e.phase != obs::TraceEvent::Phase::kSpan || e.name != "engine_shard")
      continue;
    EXPECT_EQ(e.context.trace_id, root->context.trace_id);
    EXPECT_TRUE(e.context.parent_span_id ==
                    stages["pca_project"]->context.span_id ||
                e.context.parent_span_id ==
                    stages["knn_query"]->context.span_id);
    ++shards;
  }
  // 600 rows at grain 256 = 3 shards per sharded stage.
  EXPECT_GE(shards, 4u);

  // Structured attributes survive into the recorded events.
  bool saw_vote_margin = false;
  for (const auto& a : stages["vote"]->attrs)
    if (a.key == "vote_margin") saw_vote_margin = true;
  EXPECT_TRUE(saw_vote_margin);
  bool saw_k = false;
  for (const auto& a : stages["knn_query"]->attrs)
    if (a.key == "k") saw_k = true;
  EXPECT_TRUE(saw_k);
}

TEST(ObsTrace, CrossThreadParentingIsDeterministic) {
  engine::ThreadPool pool(2);
  obs::TraceRecorder::global().clear();
  std::uint64_t root_span_id = 0;
  std::uint64_t root_trace_id = 0;
  {
    ScopedTracing tracing;
    obs::TraceSpan root("test_root");
    root_span_id = root.context().span_id;
    root_trace_id = root.context().trace_id;
    // Both tasks block on the latch until both have started, so they are
    // guaranteed to run on two distinct threads.
    std::latch both_started(2);
    pool.parallel_for(2, [&](std::size_t) {
      both_started.arrive_and_wait();
      obs::TraceSpan task_span("pool_task");
    });
  }

  const auto events = obs::TraceRecorder::global().events();
  std::vector<const obs::TraceEvent*> tasks;
  for (const auto& e : events)
    if (e.name == "pool_task") tasks.push_back(&e);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_NE(tasks[0]->tid, tasks[1]->tid);
  for (const auto* t : tasks) {
    EXPECT_EQ(t->context.trace_id, root_trace_id);
    EXPECT_EQ(t->context.parent_span_id, root_span_id);
  }
}

TEST(ObsTrace, AmbientContextRestoredAfterSpan) {
  ScopedTracing tracing;
  EXPECT_FALSE(obs::current_trace_context().active());
  {
    obs::TraceSpan outer("outer");
    EXPECT_EQ(obs::current_trace_context().span_id,
              outer.context().span_id);
    {
      obs::TraceSpan inner("inner");
      EXPECT_EQ(inner.context().parent_span_id, outer.context().span_id);
      EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
    }
    EXPECT_EQ(obs::current_trace_context().span_id,
              outer.context().span_id);
  }
  EXPECT_FALSE(obs::current_trace_context().active());
}

TEST(ObsTrace, StoppedSpanStaysAmbientAndKeepsLateAttributes) {
  obs::TraceRecorder::global().clear();
  obs::Histogram h({1.0});
  {
    ScopedTracing tracing;
    obs::TraceSpan span("stopped", &h);
    const double seconds = span.stop();
    EXPECT_EQ(span.stop(), 0.0);  // the timing ended once
    EXPECT_EQ(obs::current_trace_context().span_id, span.context().span_id);
    span.add_attr({"late", "yes"});
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), seconds);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_FALSE(obs::current_trace_context().active());
  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* span = find_span(events, "stopped");
  ASSERT_NE(span, nullptr);
  ASSERT_EQ(span->attrs.size(), 1u);
  EXPECT_EQ(span->attrs[0].key, "late");
}

TEST(ObsTrace, DisabledTracingRecordsNothing) {
  obs::set_tracing_enabled(false);
  obs::TraceRecorder::global().clear();
  {
    obs::TraceSpan span("invisible");
    EXPECT_FALSE(span.recording());
    span.add_attr({"k", "v"});
  }
  EXPECT_EQ(obs::TraceRecorder::global().size(), 0u);
  EXPECT_FALSE(obs::current_trace_context().active());
}

TEST(ObsTrace, ClassificationBitIdenticalWithTracingOnAndOff) {
  core::PipelineOptions options;
  options.parallelism = 4;
  core::ClassificationPipeline pipeline(options);
  pipeline.train(core::testing::synthetic_training());
  const metrics::DataPool pool =
      core::testing::synthetic_pool(core::ApplicationClass::kCpu, 300, 9);

  obs::set_tracing_enabled(false);
  const core::ClassificationResult off = pipeline.classify(pool);
  core::ClassificationResult on;
  {
    ScopedTracing tracing;
    on = pipeline.classify(pool);
  }

  EXPECT_EQ(on.application_class, off.application_class);
  ASSERT_EQ(on.class_vector.size(), off.class_vector.size());
  for (std::size_t i = 0; i < on.class_vector.size(); ++i)
    EXPECT_EQ(on.class_vector[i], off.class_vector[i]) << i;
  ASSERT_EQ(on.confidences.size(), off.confidences.size());
  for (std::size_t i = 0; i < on.confidences.size(); ++i)
    EXPECT_EQ(on.confidences[i], off.confidences[i]) << i;
  ASSERT_EQ(on.projected.rows(), off.projected.rows());
  for (std::size_t r = 0; r < on.projected.rows(); ++r)
    for (std::size_t c = 0; c < on.projected.cols(); ++c)
      EXPECT_EQ(on.projected.at(r, c), off.projected.at(r, c));
}

TEST(ObsTrace, StageHistogramGainsExemplarReferencingTrace) {
  core::ClassificationPipeline pipeline;
  pipeline.train(core::testing::synthetic_training());
  const metrics::DataPool pool =
      core::testing::synthetic_pool(core::ApplicationClass::kIo, 64, 3);

  obs::TraceRecorder::global().clear();
  {
    ScopedTracing tracing;
    (void)pipeline.classify(pool);
  }

  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  const auto* hist = snapshot.find_histogram("appclass_stage_seconds",
                                             {{"stage", "knn_query"}});
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->exemplar_trace_id, 0u);
  EXPECT_GE(hist->exemplar_value, 0.0);

  // The exemplar's trace id matches the recorded classify trace.
  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* root = find_span(events, "classify");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(hist->exemplar_trace_id, root->context.trace_id);

  // JSON export carries the exemplar; Prometheus text stays plain 0.0.4.
  const std::string json = obs::to_json(snapshot);
  EXPECT_NE(json.find("\"exemplar\""), std::string::npos);
  const std::string prom = obs::to_prometheus(snapshot);
  EXPECT_EQ(prom.find("exemplar"), std::string::npos);
}

TEST(ObsTrace, KnnQueryExemplarIsTheObservedPerSnapshotMean) {
  core::ClassificationPipeline pipeline;
  pipeline.train(core::testing::synthetic_training());
  const metrics::DataPool pool =
      core::testing::synthetic_pool(core::ApplicationClass::kCpu, 512, 7);

  obs::MetricsRegistry::global().reset_values();
  {
    ScopedTracing tracing;
    (void)pipeline.classify(pool);
  }

  // One clock pair feeds both: the exemplar is the mean per snapshot the
  // histogram observed, not the whole fan-out's wall time.
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  const auto* hist = snapshot.find_histogram("appclass_stage_seconds",
                                             {{"stage", "knn_query"}});
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->count, 512u);
  ASSERT_NE(hist->exemplar_trace_id, 0u);
  const double mean = hist->sum / static_cast<double>(hist->count);
  EXPECT_NEAR(hist->exemplar_value, mean, 1e-9 * mean);
}

TEST(ObsTrace, LogRecordsBecomeInstantEventsUnderActiveTrace) {
  obs::Logger::global().set_level(obs::LogLevel::kInfo);
  obs::Logger::global().set_sink([](const std::string&) {});
  obs::TraceRecorder::global().clear();
  std::uint64_t trace_id = 0;
  {
    ScopedTracing tracing;
    obs::TraceSpan span("logging_scope");
    trace_id = span.context().trace_id;
    APPCLASS_LOG_INFO("test.event", {"answer", 42});
  }
  obs::Logger::global().reset_sink();
  obs::Logger::global().set_level(obs::LogLevel::kOff);

  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* instant = nullptr;
  for (const auto& e : events)
    if (e.phase == obs::TraceEvent::Phase::kInstant &&
        e.name == "test.event")
      instant = &e;
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->context.trace_id, trace_id);
  ASSERT_FALSE(instant->attrs.empty());
  EXPECT_EQ(instant->attrs[0].key, "log");
  EXPECT_NE(instant->attrs[0].value.find("answer=42"), std::string::npos);
}

}  // namespace
}  // namespace appclass
