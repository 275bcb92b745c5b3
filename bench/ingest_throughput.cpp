// Streaming-ingest throughput: the zero-allocation announce→push→drain
// path (RCU bus + SnapshotRing + batched SoA classification) against a
// faithful re-enactment of the pre-refactor ingest (listener-copy
// announce, vector backlog swapped away per drain, per-snapshot
// transform chain returning fresh vectors). Written as BENCH_ingest.json
// for the CI gate (docs/performance.md explains the fields).
//
//   ingest_throughput [--quick] [--out=BENCH_ingest.json]
//
// Both paths classify the identical announced stream and must agree
// bit-for-bit — label stream and final per-node window state — or the
// bench aborts (APPCLASS_ENSURES). Steady-state allocations per drained
// snapshot are measured with a global operator-new counter; the CI gate
// pins them to exactly zero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/composition.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "engine/fleet.hpp"
#include "engine/knn_kernel.hpp"
#include "linalg/random.hpp"
#include "monitor/bus.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (same idiom as tests/engine_ingest_test.cpp):
// every operator-new form funnels through malloc with a relaxed count.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : align) != 0)
    throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace {

using namespace appclass;
using Clock = std::chrono::steady_clock;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

double time_run(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Compact synthetic training set (the online hot path is dominated by
/// the transform chain and buffering, not the k-NN sweep, so a small
/// training set keeps the bench focused on the ingest machinery).
metrics::Snapshot synthetic_snapshot(core::ApplicationClass cls,
                                     linalg::Rng& rng, metrics::SimTime t) {
  using metrics::MetricId;
  metrics::Snapshot s;
  s.time = t;
  s.node_ip = "10.0.0.1";
  const auto jitter = [&](double v, double sigma) {
    return std::max(0.0, v + rng.normal(0.0, sigma));
  };
  switch (cls) {
    case core::ApplicationClass::kIdle:
      s.set(MetricId::kCpuSystem, jitter(0.5, 0.2));
      break;
    case core::ApplicationClass::kCpu:
      s.set(MetricId::kCpuUser, jitter(95.0, 2.0));
      s.set(MetricId::kCpuSystem, jitter(3.0, 1.0));
      break;
    case core::ApplicationClass::kIo:
      s.set(MetricId::kCpuSystem, jitter(20.0, 3.0));
      s.set(MetricId::kCpuUser, jitter(8.0, 2.0));
      s.set(MetricId::kIoBi, jitter(5000.0, 500.0));
      s.set(MetricId::kIoBo, jitter(5000.0, 500.0));
      break;
    case core::ApplicationClass::kNetwork:
      s.set(MetricId::kCpuSystem, jitter(15.0, 3.0));
      s.set(MetricId::kBytesIn, jitter(1.0e6, 1.0e5));
      s.set(MetricId::kBytesOut, jitter(2.0e7, 2.0e6));
      break;
    case core::ApplicationClass::kMemory:
      s.set(MetricId::kCpuSystem, jitter(15.0, 3.0));
      s.set(MetricId::kSwapIn, jitter(2500.0, 300.0));
      s.set(MetricId::kSwapOut, jitter(2500.0, 300.0));
      s.set(MetricId::kIoBi, jitter(2500.0, 300.0));
      s.set(MetricId::kIoBo, jitter(2500.0, 300.0));
      break;
  }
  return s;
}

std::vector<core::LabeledPool> synthetic_training(std::size_t per_class) {
  std::vector<core::LabeledPool> out;
  for (std::size_t c = 0; c < core::kClassCount; ++c) {
    linalg::Rng rng(7 + c);
    metrics::DataPool pool("10.0.0.1");
    for (std::size_t i = 0; i < per_class; ++i)
      pool.add(synthetic_snapshot(core::class_from_index(c), rng,
                                  static_cast<metrics::SimTime>(5 * i)));
    out.push_back(
        core::LabeledPool{std::move(pool), core::class_from_index(c)});
  }
  return out;
}

/// The pre-refactor announce path: a mutex-guarded listener vector whose
/// announce() copies the list before invoking it, then bumps the
/// announcement counter (the idiom this PR's RCU bus replaced). Gauge
/// and counter costs are re-enacted on local atomics so the process's
/// real metric registry stays clean.
class LegacyBus {
 public:
  using Listener = std::function<void(const metrics::Snapshot&)>;

  void subscribe(Listener listener) {
    const std::lock_guard lock(mutex_);
    listeners_.push_back(std::move(listener));
  }

  void announce(const metrics::Snapshot& snapshot) {
    std::vector<Listener> current;
    {
      const std::lock_guard lock(mutex_);
      current.reserve(listeners_.size());
      for (const auto& l : listeners_) current.push_back(l);
    }
    for (const auto& listener : current) listener(snapshot);
    announcements_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::vector<Listener> listeners_;
  std::atomic<std::uint64_t> announcements_{0};
};

/// The pre-refactor OnlineClassifier ingest, line for line: deque
/// windows, and a fresh label vector copied out of the window and fully
/// recounted on every ingest for the rolling majority — the per-snapshot
/// allocation and recount the incremental LabelWindow class counts
/// replaced. Same arithmetic, so its final state must match the
/// optimized classifier's bit for bit (the bench's correctness guard).
/// Registry counters are re-enacted as local atomics.
class LegacyOnline {
 public:
  explicit LegacyOnline(core::OnlineOptions options) : options_(options) {}

  bool on_grid(const metrics::Snapshot& snapshot) const noexcept {
    return snapshot.time % options_.sampling_interval_s == 0;
  }

  void ingest(const metrics::Snapshot& snapshot,
              core::ApplicationClass label) {
    observed_.fetch_add(1, std::memory_order_relaxed);
    ++classified_;

    NodeState& node = nodes_.try_emplace(snapshot.node_ip).first->second;
    if (node.window.empty() && !node.stable_class)
      node.first_time = snapshot.time;
    node.window.emplace_back(snapshot.time, label);
    while (node.window.size() > options_.window) node.window.pop_front();
    refresh_window(node, snapshot.time);

    const bool abstain =
        options_.min_coverage > 0.0 && node.coverage < options_.min_coverage;
    if (abstain) {
      ++abstained_;
      abstained_counter_.fetch_add(1, std::memory_order_relaxed);
      node.candidate_streak = 0;
      return;
    }

    std::vector<core::ApplicationClass> window;
    window.reserve(node.window.size());
    for (const auto& [t, c] : node.window) window.push_back(c);
    const core::ApplicationClass dominant = core::majority_vote(window);
    if (!node.stable_class) {
      node.stable_class = dominant;
    } else if (dominant != *node.stable_class) {
      if (node.candidate_streak > 0 && node.candidate == dominant) {
        ++node.candidate_streak;
      } else {
        node.candidate = dominant;
        node.candidate_streak = 1;
      }
      if (node.candidate_streak >= options_.stability) {
        node.stable_class = dominant;
        node.candidate_streak = 0;
        changes_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      node.candidate_streak = 0;
    }
  }

  /// State in OnlineStateImage form (untimed; comparison only).
  core::OnlineStateImage export_state() const {
    core::OnlineStateImage image;
    image.classified = classified_;
    image.abstained = abstained_;
    image.nodes.reserve(nodes_.size());
    for (const auto& [ip, node] : nodes_) {
      core::OnlineNodeImage n;
      n.node_ip = ip;
      n.window.assign(node.window.begin(), node.window.end());
      n.stable_class = node.stable_class;
      n.candidate = node.candidate;
      n.candidate_streak = node.candidate_streak;
      n.first_time = node.first_time;
      n.coverage = node.coverage;
      image.nodes.push_back(std::move(n));
    }
    return image;
  }

 private:
  struct NodeState {
    std::deque<std::pair<metrics::SimTime, core::ApplicationClass>> window;
    std::optional<core::ApplicationClass> stable_class;
    core::ApplicationClass candidate = core::ApplicationClass::kIdle;
    std::size_t candidate_streak = 0;
    metrics::SimTime first_time = 0;
    double coverage = 1.0;
  };

  void refresh_window(NodeState& node, metrics::SimTime now) {
    const metrics::SimTime horizon =
        static_cast<metrics::SimTime>(options_.window - 1) *
        options_.sampling_interval_s;
    while (!node.window.empty() && now - node.window.front().first > horizon)
      node.window.pop_front();
    const metrics::SimTime observed_span =
        std::clamp<metrics::SimTime>(now - node.first_time, 0, horizon);
    const std::size_t expected = static_cast<std::size_t>(
        observed_span / options_.sampling_interval_s + 1);
    node.coverage = static_cast<double>(node.window.size()) /
                    static_cast<double>(std::max<std::size_t>(expected, 1));
  }

  core::OnlineOptions options_;
  std::map<std::string, NodeState> nodes_;
  std::size_t classified_ = 0;
  std::size_t abstained_ = 0;
  std::atomic<std::uint64_t> observed_{0};
  std::atomic<std::uint64_t> abstained_counter_{0};
  std::atomic<std::uint64_t> changes_{0};
};

/// The pre-refactor FleetStream core, line for line: vector backlog with
/// per-push backlog/peak gauge updates, backlog handed away per drain,
/// per-snapshot classification through context()->for_each and the
/// pipeline's vector-returning classify(), labels materialized in a
/// fresh vector, serial ingest through the pre-refactor online
/// bookkeeping above. Gauges are local CAS-loop atomics — the exact
/// obs::Gauge::add arithmetic without polluting the registry.
class LegacyStream {
 public:
  LegacyStream(const core::ClassificationPipeline& pipeline,
               core::OnlineOptions options)
      : pipeline_(pipeline), online_(options) {}

  bool push(const metrics::Snapshot& snapshot) {
    if (!online_.on_grid(snapshot)) return true;
    const std::lock_guard lock(mutex_);
    pending_.push_back(snapshot);
    if (pending_.size() > backlog_peak_) {
      backlog_peak_ = pending_.size();
      peak_gauge_.store(static_cast<double>(backlog_peak_),
                        std::memory_order_relaxed);
    }
    gauge_add(backlog_gauge_, 1.0);
    return true;
  }

  std::size_t drain() {
    std::vector<metrics::Snapshot> batch;
    {
      const std::lock_guard lock(mutex_);
      batch.swap(pending_);
    }
    if (batch.empty()) return 0;
    gauge_add(backlog_gauge_, -static_cast<double>(batch.size()));
    std::vector<core::ApplicationClass> labels(batch.size());
    // Verbatim the pre-refactor classify(snapshot) body — counter bump,
    // vector-returning transform chain, span-query kernel with
    // thread-local scratch — dispatched through for_each as the old
    // drain did. (Today's classify() is itself allocation-free, so
    // calling it would not re-enact the old cost.) The span query runs
    // the kernel's one top-k scan, the same one the ring path runs, so
    // the speedup measures only the ingest path around the kernel.
    pipeline_.context()->for_each(batch.size(), [&](std::size_t i) {
      snapshots_counter_.fetch_add(1, std::memory_order_relaxed);
      const std::vector<double> projected =
          pipeline_.pca().transform(
              pipeline_.preprocessor().transform(batch[i]));
      thread_local engine::BlockedKnnIndex::Scratch scratch;
      const engine::BlockedKnnIndex& index = pipeline_.knn().index();
      labels[i] = index.vote(index.top_k(projected, scratch)).label;
    });
    for (std::size_t i = 0; i < batch.size(); ++i)
      online_.ingest(batch[i], labels[i]);
    return batch.size();
  }

  LegacyOnline& online() { return online_; }

 private:
  static void gauge_add(std::atomic<double>& gauge, double delta) {
    double cur = gauge.load(std::memory_order_relaxed);
    while (!gauge.compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
    }
  }

  const core::ClassificationPipeline& pipeline_;
  LegacyOnline online_;
  std::mutex mutex_;
  std::vector<metrics::Snapshot> pending_;
  std::size_t backlog_peak_ = 0;
  std::atomic<double> backlog_gauge_{0.0};
  std::atomic<double> peak_gauge_{0.0};
  std::atomic<std::uint64_t> snapshots_counter_{0};
};

bool same_state(const core::OnlineStateImage& a,
                const core::OnlineStateImage& b) {
  if (a.classified != b.classified || a.abstained != b.abstained ||
      a.nodes.size() != b.nodes.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const auto& x = a.nodes[i];
    const auto& y = b.nodes[i];
    if (x.node_ip != y.node_ip || x.window != y.window ||
        x.stable_class != y.stable_class || x.candidate != y.candidate ||
        x.candidate_streak != y.candidate_streak ||
        x.first_time != y.first_time || x.coverage != y.coverage)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strncmp(argv[i], "--out=", 6)) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: ingest_throughput [--quick] [--out=file.json]\n");
      return 2;
    }
  }
  bench::dump_registry_at_exit();

  core::ClassificationPipeline pipeline;
  pipeline.train(synthetic_training(20));

  // A fleet of stable nodes, each announcing its own class on the grid.
  // Snapshots are pre-generated: the measured region is purely the
  // announce→push→drain→ingest machinery.
  const std::size_t kNodes = 16;
  const std::size_t kPerCycle = 8;  // grid steps (= drains) per cycle
  const std::size_t cycles = quick ? 400 : 4000;
  const std::size_t warm_cycles = 20;
  core::OnlineOptions options;
  // Gmond's default cadence: every node announces once per second while
  // the classification grid samples every sampling_interval_s (5s), so
  // 4 of every 5 announcements are off-grid and filtered at push. Both
  // paths carry this full-rate bus traffic; only on-grid snapshots are
  // drained and counted.
  const std::size_t kAnnouncesPerGrid =
      static_cast<std::size_t>(options.sampling_interval_s);

  std::vector<metrics::Snapshot> cycle_template;
  for (std::size_t s = 0; s < kPerCycle; ++s) {
    for (std::size_t node = 0; node < kNodes; ++node) {
      linalg::Rng rng(1000 + node * kPerCycle + s);
      metrics::Snapshot snapshot = synthetic_snapshot(
          core::class_from_index(node % core::kClassCount), rng, 0);
      snapshot.node_ip = "10.0." + std::to_string(node) + ".1";
      cycle_template.push_back(std::move(snapshot));
    }
  }
  const std::size_t per_drain = kNodes * kPerCycle;

  // Realistic bus fan-out: the announce stream feeds more than the
  // classifying fleet — a liveness watcher and a hot-I/O tap ride along
  // on both paths. The pre-RCU announce copies its whole listener list
  // per announcement, so every extra subscriber is an extra copied
  // std::function on that path; the RCU announce pins one immutable
  // list regardless of fan-out.
  std::atomic<metrics::SimTime> last_seen{0};
  std::atomic<std::uint64_t> io_hot{0};
  const auto liveness_tap = [&last_seen](const metrics::Snapshot& s) {
    last_seen.store(s.time, std::memory_order_relaxed);
  };
  const auto io_tap = [&io_hot](const metrics::Snapshot& s) {
    if (s.get(metrics::MetricId::kIoBi) > 1000.0)
      io_hot.fetch_add(1, std::memory_order_relaxed);
  };

  // --- Reference: the pre-refactor path. -----------------------------------
  // Drains run once per grid step on both paths: an online detector that
  // buffers several sampling periods before classifying would add that
  // many periods of behaviour-change latency.
  LegacyBus legacy_bus;
  LegacyStream legacy(pipeline, options);
  legacy_bus.subscribe(
      [&legacy](const metrics::Snapshot& s) { legacy.push(s); });
  legacy_bus.subscribe(liveness_tap);
  legacy_bus.subscribe(io_tap);
  metrics::SimTime legacy_t = 0;
  const auto legacy_cycle = [&] {
    std::size_t drained = 0;
    for (std::size_t s = 0; s < kPerCycle; ++s) {
      for (std::size_t sub = 0; sub < kAnnouncesPerGrid; ++sub) {
        for (std::size_t node = 0; node < kNodes; ++node) {
          metrics::Snapshot& snapshot = cycle_template[s * kNodes + node];
          snapshot.time = legacy_t + static_cast<metrics::SimTime>(sub);
          legacy_bus.announce(snapshot);
        }
      }
      legacy_t += options.sampling_interval_s;
      drained += legacy.drain();
    }
    return drained;
  };

  // --- New path: RCU bus + SnapshotRing + batched SoA drain. ----------------
  monitor::MetricBus bus;
  engine::FleetStream fleet(pipeline, options);
  fleet.attach(bus);
  bus.subscribe(liveness_tap);
  bus.subscribe(io_tap);
  metrics::SimTime fleet_t = 0;
  const auto fleet_cycle = [&] {
    std::size_t drained = 0;
    for (std::size_t s = 0; s < kPerCycle; ++s) {
      for (std::size_t sub = 0; sub < kAnnouncesPerGrid; ++sub) {
        for (std::size_t node = 0; node < kNodes; ++node) {
          metrics::Snapshot& snapshot = cycle_template[s * kNodes + node];
          snapshot.time = fleet_t + static_cast<metrics::SimTime>(sub);
          bus.announce(snapshot);
        }
      }
      fleet_t += options.sampling_interval_s;
      drained += fleet.drain();
    }
    return drained;
  };

  for (std::size_t i = 0; i < warm_cycles; ++i) legacy_cycle();
  for (std::size_t i = 0; i < warm_cycles; ++i) fleet_cycle();

  // Steady-state allocation probe: exact operator-new count across a
  // measured slice of warmed cycles (the reference path runs the same
  // cycles untimed so both classifiers keep seeing the identical stream
  // — cycle content is a pure function of the running clock).
  const std::size_t alloc_probe_cycles = 10;
  const std::uint64_t allocs_before = allocations();
  std::size_t probe_drained = 0;
  for (std::size_t i = 0; i < alloc_probe_cycles; ++i)
    probe_drained += fleet_cycle();
  const std::uint64_t alloc_delta = allocations() - allocs_before;
  const double allocs_per_snapshot =
      static_cast<double>(alloc_delta) / static_cast<double>(probe_drained);
  for (std::size_t i = 0; i < alloc_probe_cycles; ++i) legacy_cycle();

  // Paired interleaved timing: the two paths alternate in short blocks,
  // so a shared host's slow and fast phases land on both paths nearly
  // equally instead of skewing whichever side happened to run second.
  const std::size_t block_cycles = 50;
  std::size_t legacy_drained = 0;
  std::size_t fleet_drained = 0;
  double legacy_seconds = 0.0;
  double fleet_seconds = 0.0;
  for (std::size_t done = 0; done < cycles;) {
    const std::size_t block = std::min(block_cycles, cycles - done);
    legacy_seconds += time_run([&] {
      for (std::size_t i = 0; i < block; ++i) legacy_drained += legacy_cycle();
    });
    fleet_seconds += time_run([&] {
      for (std::size_t i = 0; i < block; ++i) fleet_drained += fleet_cycle();
    });
    done += block;
  }
  APPCLASS_ENSURES(legacy_drained == cycles * per_drain);
  APPCLASS_ENSURES(fleet_drained == cycles * per_drain);
  fleet.detach();

  // --- Bit-identity: both paths saw the same stream (same times, same
  // payloads) and must have produced identical per-node online state.
  APPCLASS_ENSURES(legacy_t == fleet_t);
  const bool bit_identical = same_state(legacy.online().export_state(),
                                        fleet.online().export_state());
  APPCLASS_ENSURES(bit_identical);

  const double legacy_ps = static_cast<double>(legacy_drained) /
                           legacy_seconds;
  const double fleet_ps = static_cast<double>(fleet_drained) / fleet_seconds;
  const double speedup = fleet_ps / legacy_ps;

  std::printf("%-22s %12s %10s %14s\n", "path", "snapshots", "seconds",
              "snapshots/sec");
  std::printf("%-22s %12zu %10.4f %14.0f\n", "reference(pre-ring)",
              legacy_drained, legacy_seconds, legacy_ps);
  std::printf("%-22s %12zu %10.4f %14.0f\n", "ring(zero-alloc)",
              fleet_drained, fleet_seconds, fleet_ps);
  std::printf("\ningest speedup over reference: %.2fx\n", speedup);
  std::printf("steady-state allocations per drained snapshot: %.4f "
              "(%llu allocations / %zu snapshots)\n",
              allocs_per_snapshot,
              static_cast<unsigned long long>(alloc_delta), probe_drained);
  std::printf("bit-identical online state: %s\n",
              bit_identical ? "yes" : "NO");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"ingest_throughput\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"snapshots_per_sec_reference\": %.1f,\n", legacy_ps);
  std::fprintf(out, "  \"snapshots_per_sec_ring\": %.1f,\n", fleet_ps);
  std::fprintf(out, "  \"ingest_speedup\": %.3f,\n", speedup);
  std::fprintf(out, "  \"steady_state_allocs_per_snapshot\": %.4f,\n",
               allocs_per_snapshot);
  std::fprintf(out, "  \"steady_state_alloc_count\": %llu,\n",
               static_cast<unsigned long long>(alloc_delta));
  std::fprintf(out, "  \"alloc_probe_snapshots\": %zu,\n", probe_drained);
  std::fprintf(out, "  \"bit_identical\": %s\n", bit_identical ? "true"
                                                               : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
