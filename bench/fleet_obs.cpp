// Fleet observability plane cost + end-to-end latency, written as
// BENCH_fleetobs.json for the CI artifact:
//
//   fleet_obs [--quick] [--out=BENCH_fleetobs.json]
//
// Three sections:
//
//   federation  what one coordinator scrape round costs: parse each
//               worker's Prometheus text, federate the snapshots, and
//               re-export the merged registry. This runs every
//               --fleet-scrape-every interval, so it must be cheap
//               relative to the period.
//   e2e         announce -> durable-ack and announce -> ingested
//               latency over a real loopback WorkerLink/IngestListener
//               pair, read back from the registry histograms the serve
//               path feeds (the /slo freshness SLI's raw distribution).
//               Their p50/p99 are bucket upper bounds, null when the
//               quantile falls past the last bucket.
//   identity    the delivered payload stream is bit-identical with
//               tracing on and off — the observability plane is
//               observational by contract, and this is the guard.
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "dist/ingest.hpp"
#include "dist/link.hpp"
#include "harness.hpp"
#include "metrics/snapshot.hpp"
#include "monitor/wire.hpp"
#include "obs/export.hpp"
#include "obs/federate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace appclass;

/// Synthetic per-worker registry shaped like a real worker's /metrics:
/// a few dozen counters, per-stage histograms, and a handful of gauges.
obs::RegistrySnapshot synthetic_worker_snapshot(int worker) {
  obs::MetricsRegistry reg;
  for (int c = 0; c < 32; ++c) {
    reg.counter("appclass_bench_counter_" + std::to_string(c),
                {{"shard", std::to_string(worker)}})
        .inc(static_cast<std::uint64_t>(1000 + 37 * c + worker));
  }
  for (int g = 0; g < 8; ++g) {
    reg.gauge("appclass_bench_gauge_" + std::to_string(g))
        .set(0.5 * g + 0.25 * worker);
  }
  for (int h = 0; h < 8; ++h) {
    obs::Histogram& hist = reg.histogram(
        "appclass_bench_stage_" + std::to_string(h) + "_seconds");
    for (int i = 0; i < 64; ++i)
      hist.observe(1e-6 * static_cast<double>(1 + i * (h + 1)));
  }
  return reg.snapshot();
}

metrics::Snapshot grid_snapshot(std::size_t i) {
  metrics::Snapshot s;
  s.time = static_cast<metrics::SimTime>(i * 5);  // sampling grid
  s.node_ip = "10.0.0." + std::to_string(1 + i % 8);
  s.set(metrics::MetricId::kCpuUser, 50.0 + static_cast<double>(i % 40));
  s.set(metrics::MetricId::kBytesIn, 1e5 + 13.0 * static_cast<double>(i));
  return s;
}

/// One loopback ingest pass: listener + link, `frames` sends + flush.
/// Returns the FNV-1a hash of the delivered payload byte stream.
std::uint64_t run_ingest_pass(std::size_t frames) {
  std::string delivered;
  dist::IngestListener listener(
      {},
      [&delivered](const metrics::Snapshot& s) {
        const auto bytes = monitor::encode_packet(s);
        delivered.append(bytes.begin(), bytes.end());
        return true;
      },
      0);
  APPCLASS_ENSURES(listener.start());
  {
    dist::WorkerLink link("127.0.0.1", listener.port());
    for (std::size_t i = 0; i < frames; ++i) {
      obs::TraceSpan span("dist_announce");
      APPCLASS_ENSURES(link.send(grid_snapshot(i), span.context()));
    }
    APPCLASS_ENSURES(link.flush());
  }
  listener.stop();
  return common::fnv1a64(delivered);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, "fleet_obs", "BENCH_fleetobs.json");

  // --- federation: one coordinator scrape round, end to end -------------
  constexpr int kWorkers = 4;
  std::vector<std::string> worker_texts;
  for (int w = 0; w < kWorkers; ++w)
    worker_texts.push_back(obs::to_prometheus(synthetic_worker_snapshot(w)));
  std::size_t scrape_bytes = 0;
  for (const auto& text : worker_texts) scrape_bytes += text.size();

  const std::size_t scrape_rounds = args.quick ? 20 : 200;  // per repetition
  obs::BoundedLabelSet worker_labels(kWorkers + 1);
  std::size_t merged_bytes = 0;
  std::size_t merged_series = 0;
  const auto seconds = bench::time_interleaved({[&] {
    for (std::size_t r = 0; r < scrape_rounds; ++r) {
      std::vector<obs::FederationPart> parts;
      parts.reserve(worker_texts.size());
      for (std::size_t w = 0; w < worker_texts.size(); ++w) {
        auto parsed = obs::parse_prometheus(worker_texts[w]);
        APPCLASS_ENSURES(parsed.has_value());
        parts.push_back({std::to_string(w), std::move(*parsed)});
      }
      const obs::FederationResult merged =
          obs::federate_snapshots(parts, &worker_labels);
      APPCLASS_ENSURES(merged.dropped_series == 0);
      const std::string text = obs::to_prometheus(merged.merged);
      merged_bytes = text.size();
      merged_series = merged.merged.counters.size() +
                      merged.merged.gauges.size() +
                      merged.merged.histograms.size();
    }
  }});

  // --- e2e: loopback announce -> durable-ack / -> ingested --------------
  const std::size_t frames = args.quick ? 2000 : 20000;
  obs::set_tracing_enabled(false);
  const std::uint64_t hash_off = run_ingest_pass(frames);
  const auto after_off = obs::MetricsRegistry::global().snapshot();
  const auto* durable =
      after_off.find_histogram("appclass_e2e_durable_ack_seconds");
  const auto* ingested =
      after_off.find_histogram("appclass_e2e_ingest_seconds");
  APPCLASS_ENSURES(durable != nullptr && durable->count >= frames);
  APPCLASS_ENSURES(ingested != nullptr && ingested->count >= frames);

  // --- identity: tracing must not change the delivered stream -----------
  obs::set_tracing_enabled(true);
  const std::uint64_t hash_on = run_ingest_pass(frames);
  obs::set_tracing_enabled(false);
  const bool bit_identical = hash_on == hash_off;
  APPCLASS_ENSURES(bit_identical);

  const auto latency = [](const obs::HistogramSnapshot& h) {
    return bench::Fields()
        .count("count", h.count)
        .num("mean_us", 1e6 * h.mean())
        .num("p50_us", 1e6 * h.quantile_bound(0.50))
        .num("p99_us", 1e6 * h.quantile_bound(0.99));
  };
  const double us_per_round = 1e6 * bench::spread(seconds[0]).median /
                              static_cast<double>(scrape_rounds);
  const bench::Fields federation = bench::Fields()
                                       .count("workers", kWorkers)
                                       .count("scrape_rounds", scrape_rounds)
                                       .count("scrape_bytes", scrape_bytes)
                                       .count("merged_series", merged_series)
                                       .count("merged_bytes", merged_bytes)
                                       .timing(seconds[0])
                                       .num("us_per_round", us_per_round);
  return bench::write_report(args,
                             bench::Fields()
                                 .object("federation", federation)
                                 .object("e2e_durable_ack", latency(*durable))
                                 .object("e2e_ingest", latency(*ingested))
                                 .count("frames", frames)
                                 .flag("bit_identical", bit_identical));
}
