#include "gen.hpp"

#include <algorithm>
#include <span>

#include "core/trainer.hpp"

namespace perfbench {
namespace {

/// Jittered variants kept per canonical run; nodes share them.
constexpr std::size_t kVariants = 4;
constexpr double kJitterSigma = 0.03;

}  // namespace

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return linalg::derive_seed(seed, stream);
}

void jitter(metrics::Snapshot& snapshot, linalg::Rng& rng, double sigma) {
  for (double& v : snapshot.values)
    v = std::max(0.0, v * (1.0 + sigma * rng.normal()));
}

std::string node_ip(std::uint32_t block, std::size_t n) {
  return std::to_string(block) + "." + std::to_string((n >> 16) & 0xff) + "." +
         std::to_string((n >> 8) & 0xff) + "." + std::to_string(n & 0xff);
}

std::vector<core::LabeledPool> training_captures(std::uint64_t seed,
                                                 std::size_t captures) {
  std::vector<core::LabeledPool> all;
  all.reserve(captures * core::kClassCount);
  for (std::size_t c = 0; c < captures; ++c) {
    core::TrainingSetup setup;
    setup.seed = sub_seed(seed, 1000 + c);
    for (core::LabeledPool& pool : core::collect_training_pools(setup))
      all.push_back(std::move(pool));
  }
  return all;
}

std::vector<GeneratedPool> make_pools(
    const std::vector<core::RecordedRun>& runs, std::uint64_t seed,
    std::size_t count, std::size_t min_len, std::size_t max_len) {
  linalg::Rng rng(sub_seed(seed, 2));
  std::vector<GeneratedPool> pools;
  pools.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Runs in rotation so every class is equally represented.
    const core::RecordedRun& run = runs[i % runs.size()];
    const std::size_t grid = (run.announcements.size() + 4) / 5;
    const std::size_t len =
        min_len + static_cast<std::size_t>(rng.uniform_index(max_len - min_len + 1));
    const std::size_t start = static_cast<std::size_t>(rng.uniform_index(grid));
    GeneratedPool out{metrics::DataPool(node_ip(10, 0x200000 + i)), run.expected};
    for (std::size_t j = 0; j < len; ++j) {
      metrics::Snapshot s = run.announcements[((start + j) % grid) * 5];
      s.time = static_cast<metrics::SimTime>(5 * j);
      s.node_ip = out.pool.node_ip();
      jitter(s, rng, kJitterSigma);
      out.pool.add(std::move(s));
    }
    pools.push_back(std::move(out));
  }
  return pools;
}

Fleet::Fleet(const std::vector<core::RecordedRun>& runs, std::uint64_t seed,
             std::size_t nodes, std::uint32_t ip_block)
    : runs_(runs) {
  linalg::Rng rng(sub_seed(seed, 3));
  variants_.resize(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r)
    for (std::size_t v = 0; v < kVariants; ++v) {
      std::vector<metrics::Snapshot> copy = runs[r].announcements;
      for (metrics::Snapshot& s : copy) jitter(s, rng, kJitterSigma);
      variants_[r].push_back(std::move(copy));
    }
  nodes_.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    Node& node = nodes_[n];
    node.ip = node_ip(ip_block, n);
    node.run = static_cast<std::uint32_t>(rng.uniform_index(runs.size()));
    node.variant = static_cast<std::uint32_t>(rng.uniform_index(kVariants));
    node.offset = static_cast<std::uint32_t>(
        rng.uniform_index(runs[node.run].announcements.size()));
    node.phase = static_cast<metrics::SimTime>(rng.uniform_index(kGrid));
  }
  order_.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) order_[i] = i;
  rng.shuffle(std::span<std::size_t>(order_));
}

void Fleet::fill(std::size_t n, metrics::SimTime round,
                 metrics::Snapshot& out) const {
  const Node& node = nodes_[n];
  const auto& stream = variants_[node.run][node.variant];
  const metrics::SimTime t = time(n, round);
  out.values =
      stream[(node.offset + static_cast<std::size_t>(t)) % stream.size()].values;
  out.time = t;
}

void Fleet::fill_on_grid(std::size_t n, std::uint64_t k,
                         metrics::Snapshot& out) const {
  const Node& node = nodes_[n];
  const auto& stream = variants_[node.run][node.variant];
  const auto t = static_cast<metrics::SimTime>(k) * kGrid;
  out.values =
      stream[(node.offset + static_cast<std::size_t>(t)) % stream.size()].values;
  out.time = t;
}

metrics::Snapshot Fleet::blank(std::size_t n) const {
  metrics::Snapshot s;
  s.node_ip = nodes_[n].ip;
  return s;
}

}  // namespace perfbench
