// Self-tests of the benchmark's own arithmetic: the percentile rule,
// open-loop due-time and lateness accounting, per-block medians,
// residuals and ratios, and the tracer's self-time fold. Exits non-zero
// on the first failing group, printing every failed check.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "stats.hpp"
#include "tracer.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

using namespace perfbench;

void percentile_rule() {
  // Nearest rank: p99 of 1..1000 is 990, with exactly 10 samples beyond.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(quantile_sorted(v, 0.99) == 990.0);
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(percentile_reportable(1000, 0.99));
  CHECK(!percentile_reportable(999, 0.99));
  CHECK(quantile_sorted(v, 0.5) == 500.0);
  CHECK(quantile_sorted(v, 1.0) == 1000.0);
  // The tail rule picks the highest ladder percentile with >= 10 beyond.
  CHECK(highest_reportable(10) == 0.0);
  CHECK(highest_reportable(20) == 0.5);
  CHECK(highest_reportable(100) == 0.9);
  CHECK(highest_reportable(999) == 0.9);
  CHECK(highest_reportable(1000) == 0.99);
  CHECK(highest_reportable(10000) == 0.999);
  CHECK(highest_reportable(100000) == 0.9999);
  // Summaries come from raw samples, in any order.
  std::vector<double> shuffled;
  for (int i = 1000; i >= 1; --i) shuffled.push_back(i);
  const LatencySummary s = summarize(shuffled);
  CHECK(s.count == 1000);
  CHECK(s.p50 == 500.0);
  CHECK(s.p90 == 900.0);
  CHECK(s.p99 == 990.0);
  CHECK(s.p99_reportable);
  CHECK(s.tail_q == 0.99 && s.tail == 990.0);
  CHECK(s.max == 1000.0);
  const LatencySummary small = summarize({3.0, 1.0, 2.0});
  CHECK(!small.p99_reportable);
  CHECK(small.tail_q == 0.0 && small.tail == 3.0);
  CHECK(throws([] { rank_index(0, 0.5); }));
  CHECK(throws([] { rank_index(10, 0.0); }));
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(median({5.0, 1.0, 3.0}) == 3.0);
}

void due_time_accounting() {
  const Schedule sched(1'000'000'000, 1000.0);  // 1 op/ms from t = 1 s
  CHECK(sched.due_ns(0) == 1'000'000'000);
  CHECK(sched.due_ns(1) == 1'001'000'000);
  CHECK(sched.due_ns(1000) == 2'000'000'000);
  // A non-integral period rounds each due time, never drifts.
  const Schedule third(0, 3.0);
  CHECK(third.due_ns(1) == 333'333'333);
  CHECK(third.due_ns(3) == 1'000'000'000);
  CHECK(throws([] { Schedule(0, 0.0); }));
  // Lateness is never negative; latency runs from the due time.
  CHECK(near(lateness_ms(1'000'000, 3'500'000), 2.5));
  CHECK(lateness_ms(5'000'000, 1'000'000) == 0.0);
  CHECK(near(since_due_ms(1'000'000, 4'000'000), 3.0));
  // A stalled generator: op 0 due at 0 but sent at 5 ms, op 1 due at
  // 1 ms; both complete at 6 ms. Op 1's latency includes the stall.
  CHECK(near(since_due_ms(0, 6'000'000), 6.0));
  CHECK(near(since_due_ms(1'000'000, 6'000'000), 5.0));
  // Batched completions map back onto items in push order.
  const std::vector<BatchReturn> returns = {{10'000'000, 2}, {20'000'000, 1}};
  const std::vector<double> lat = batch_latencies_ms(
      returns, [](std::uint64_t k) { return static_cast<std::int64_t>(k) * 4'000'000; });
  CHECK(lat.size() == 3);
  CHECK(near(lat[0], 10.0) && near(lat[1], 6.0) && near(lat[2], 12.0));
}

void residuals_and_ratios() {
  CHECK(near(residual_ratio(10.0, 9.0), 0.1));
  CHECK(near(residual_ratio(10.0, 11.0), -0.1));
  CHECK(residual_ratio(4.0, 4.0) == 0.0);
  CHECK(throws([] { residual_ratio(0.0, 1.0); }));
  CHECK(near(ratio(3.0, 2.0), 1.5));
  CHECK(throws([] { ratio(1.0, 0.0); }));
  // Per-block medians ignore one slow block that a whole-run mean feels.
  const std::vector<Block> blocks = {{1.0, 100.0}, {1.0, 110.0}, {10.0, 100.0},
                                     {1.0, 90.0}, {1.0, 105.0}};
  CHECK(near(median_rate(blocks), 100.0));
  CHECK(throws([] { median_rate({}); }));
}

void tracer_self_time() {
  const TracerCost& cost = tracer_cost();
  CHECK(cost.span_in_ns >= 0.0 && cost.span_in_ns < 100'000.0);
  CHECK(cost.child_extra_ns >= 0.0 && cost.child_extra_ns < 100'000.0);
  // A parent that sleeps 4 ms around a 6 ms child: self times 4 and 6.
  Tracer tracer;
  {
    Span parent(&tracer, "parent");
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    {
      Span child(&tracer, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(6));
    }
  }
  // A weighted (sampled) span stands for `weight` operations.
  {
    Span sampled(&tracer, "sampled", 8.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A span on another thread with an explicit parent is not subtracted.
  std::uint32_t root_id = 0;
  {
    Span root(&tracer, "root");
    root_id = root.id();
    std::thread([&] {
      Span remote(&tracer, "remote", root_id);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }).join();
  }
  const auto lt = tracer.layer_times();
  CHECK(lt.at("parent").self_s > 0.0035 && lt.at("parent").self_s < 0.0055);
  CHECK(lt.at("child").self_s > 0.0055 && lt.at("child").self_s < 0.0080);
  CHECK(near(lt.at("sampled").count, 8.0));
  CHECK(lt.at("sampled").self_s > 0.0075);
  CHECK(lt.at("root").self_s >= 0.0029);
  CHECK(tracer.span_count() == 5);
  // A span given no tracer records nothing.
  {
    Span s(nullptr, "x");
  }
  CHECK(tracer.span_count() == 5);
}

}  // namespace

int main() {
  percentile_rule();
  due_time_accounting();
  residuals_and_ratios();
  tracer_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
