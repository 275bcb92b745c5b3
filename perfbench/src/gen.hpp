// Seeded input generation. Everything the program under test receives is
// derived here from the run seed and the five canonical recorded runs
// (core::record_canonical_runs), so one seed always yields the same
// pools, node streams and frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/robustness.hpp"
#include "linalg/random.hpp"
#include "metrics/snapshot.hpp"

namespace appclass::dist {}
namespace appclass::engine {}
namespace appclass::monitor {}
namespace appclass::obs {}
namespace appclass::persist {}
namespace appclass::serving {}

namespace perfbench {

namespace core = appclass::core;
namespace dist = appclass::dist;
namespace engine = appclass::engine;
namespace linalg = appclass::linalg;
namespace metrics = appclass::metrics;
namespace monitor = appclass::monitor;
namespace obs = appclass::obs;
namespace persist = appclass::persist;
namespace serving = appclass::serving;

/// Independent seed stream `stream` of the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Multiplies every metric by (1 + sigma * N(0, 1)), clamped at 0.
void jitter(metrics::Snapshot& snapshot, linalg::Rng& rng, double sigma);

/// Dotted node address for fleet member `n` (unique up to 2^24 nodes).
std::string node_ip(std::uint32_t block, std::size_t n);

/// Labelled training captures: collect_training_pools over `captures`
/// training seeds derived from `seed` — a reference set `captures`
/// times the paper's.
std::vector<core::LabeledPool> training_captures(std::uint64_t seed,
                                                 std::size_t captures);

/// One generated test pool and the class of the run it was drawn from.
struct GeneratedPool {
  metrics::DataPool pool;
  core::ApplicationClass expected;
};

/// `count` pools, each a jittered resample of a contiguous stretch of one
/// canonical run's grid samples (d = 5 s), `min_len`..`max_len` long.
std::vector<GeneratedPool> make_pools(
    const std::vector<core::RecordedRun>& runs, std::uint64_t seed,
    std::size_t count, std::size_t min_len, std::size_t max_len);

/// A fleet of monitored nodes, each replaying one jittered variant of a
/// canonical run from its own offset at Ganglia cadence (one announce
/// per simulated second). Node clocks carry a seeded phase of 0..4 s, so
/// each simulated second puts about a fifth of the fleet on the 5 s
/// sampling grid instead of the whole fleet every fifth second.
class Fleet {
 public:
  static constexpr metrics::SimTime kGrid = 5;

  Fleet(const std::vector<core::RecordedRun>& runs, std::uint64_t seed,
        std::size_t nodes, std::uint32_t ip_block);

  std::size_t size() const noexcept { return nodes_.size(); }
  core::ApplicationClass expected(std::size_t n) const {
    return runs_[nodes_[n].run].expected;
  }
  const std::string& ip(std::size_t n) const { return nodes_[n].ip; }

  /// Node `n`'s clock at fleet round `round`.
  metrics::SimTime time(std::size_t n, metrics::SimTime round) const {
    return round + nodes_[n].phase;
  }
  bool on_grid(std::size_t n, metrics::SimTime round) const {
    return time(n, round) % kGrid == 0;
  }

  /// Writes node `n`'s announce at fleet round `round` into `out`
  /// (values and time; out.node_ip must already be the node's address).
  void fill(std::size_t n, metrics::SimTime round,
            metrics::Snapshot& out) const;

  /// Writes node `n`'s k-th on-grid snapshot (time 5k, no phase): the
  /// frames a sender ships after grid filtering.
  void fill_on_grid(std::size_t n, std::uint64_t k,
                    metrics::Snapshot& out) const;

  /// A snapshot with node `n`'s address, ready for fill().
  metrics::Snapshot blank(std::size_t n) const;

  /// Position -> node: the fixed order nodes announce in within a round
  /// (a seeded permutation, so shards and hash maps see no address
  /// pattern).
  std::size_t order(std::size_t position) const { return order_[position]; }

 private:
  struct Node {
    std::string ip;
    std::uint32_t run = 0;
    std::uint32_t variant = 0;
    std::uint32_t offset = 0;
    metrics::SimTime phase = 0;
  };
  const std::vector<core::RecordedRun>& runs_;
  /// [run][variant] -> jittered copy of the run's 1 Hz announcements.
  std::vector<std::vector<std::vector<metrics::Snapshot>>> variants_;
  std::vector<Node> nodes_;
  std::vector<std::size_t> order_;
};

}  // namespace perfbench
