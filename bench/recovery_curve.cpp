// Process-level crash chaos: recovery time and snapshots lost vs WAL
// fsync policy, written as BENCH_recovery.json for CI — the robustness
// complement of ablation_faults (data faults) for process faults.
//
//   recovery_curve [--quick] [--out=BENCH_recovery.json]
//
// For each fsync policy (always, interval, never) the bench forks a
// worker that write-ahead logs + ingests a deterministic canonical
// stream, checkpoints once mid-way, and SIGKILLs itself mid-ingest. The
// parent then recovers from the surviving files, measuring wall-clock
// recovery time and snapshots lost, and aborts unless the recovered
// state is bit-identical to an uninterrupted reference run over the
// durable prefix and the loss respects the policy's documented bound
// (always: 0, interval: <= sync_every, never: unbounded).
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/online.hpp"
#include "harness.hpp"
#include "persist/checkpoint.hpp"
#include "persist/recovery.hpp"
#include "persist/wal.hpp"

namespace {

using namespace appclass;

/// Canonical byte image of a classifier's full online state (the
/// checkpoint encoding doubles as the bit-identity witness).
std::string state_image(const core::OnlineClassifier& online) {
  persist::CheckpointData data;
  data.options = online.options();
  data.online = online.export_state();
  return persist::encode_checkpoint(data);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(
      argc, argv, "recovery_curve", "BENCH_recovery.json");

  const core::ClassificationPipeline& pipeline = bench::trained_pipeline();
  // Identical bytes in the killed worker, the recovery, and the
  // uninterrupted reference, because all three replay one stream.
  const std::size_t total = args.quick ? 600 : 2500;
  const std::size_t checkpoint_at = total / 2;
  const std::vector<metrics::Snapshot> stream =
      bench::canonical_stream(total);

  char tmpl[] = "/tmp/appclass_recovery_curve_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "cannot create scratch directory\n");
    return 1;
  }
  const std::string scratch = tmpl;

  const persist::WalOptions policies[] = {
      {.fsync = persist::FsyncPolicy::kAlways},
      {.fsync = persist::FsyncPolicy::kInterval, .sync_every = 32},
      {.fsync = persist::FsyncPolicy::kNever},
  };

  // Append throughput of the bare log under each policy — what the
  // serving path pays per accepted snapshot for its durability level.
  // Every run writes a fresh log directory.
  std::filesystem::create_directories(scratch + "/throughput");
  std::size_t append_runs = 0;
  std::vector<std::function<void()>> appenders;
  for (const auto& wal_options : policies) {
    appenders.push_back([&, wal_options] {
      persist::WalWriter wal(
          scratch + "/throughput/" + std::to_string(append_runs++),
          wal_options, 0);
      for (const auto& snapshot : stream) wal.append(snapshot);
      wal.sync();
    });
  }
  const auto append_seconds = bench::time_interleaved(appenders);
  std::filesystem::remove_all(scratch + "/throughput");

  std::vector<bench::Fields> rows;
  for (std::size_t p = 0; p < std::size(policies); ++p) {
    const persist::WalOptions& wal_options = policies[p];
    const std::string policy(persist::to_string(wal_options.fsync));
    const std::string dir = scratch + "/" + policy;
    std::filesystem::create_directories(dir);

    // Crash pass: the worker dies by SIGKILL mid-ingest — no destructor,
    // no flush — exactly what a node failure leaves on disk.
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      core::OnlineClassifier online(pipeline);
      persist::WalWriter wal(dir + "/wal", wal_options, 0);
      for (std::size_t i = 0; i < total; ++i) {
        wal.append(stream[i]);
        online.ingest(stream[i], pipeline.classify(stream[i]));
        if (i + 1 == checkpoint_at) {
          wal.sync();
          persist::CheckpointData data;
          data.wal_next = i + 1;
          data.options = online.options();
          data.online = online.export_state();
          persist::write_checkpoint(dir + "/checkpoints", data);
        }
      }
      ::raise(SIGKILL);
      ::_exit(127);  // unreachable
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFSIGNALED(status) ||
        WTERMSIG(status) != SIGKILL) {
      std::fprintf(stderr, "worker did not die by SIGKILL as arranged\n");
      return 1;
    }

    core::OnlineClassifier recovered(pipeline);
    const persist::RecoveryReport report =
        persist::recover(dir, pipeline, recovered);
    const std::uint64_t durable = report.wal_next_seq;
    const std::uint64_t lost = total - durable;

    // The durable prefix must replay to bit-identical state, and the
    // loss must honour the policy's bound.
    core::OnlineClassifier reference(pipeline);
    for (std::uint64_t i = 0; i < durable; ++i)
      reference.ingest(stream[i], pipeline.classify(stream[i]));
    APPCLASS_ENSURES(state_image(recovered) == state_image(reference));
    bool bound_ok = true;
    switch (wal_options.fsync) {
      case persist::FsyncPolicy::kAlways:
        bound_ok = lost == 0;
        break;
      case persist::FsyncPolicy::kInterval:
        bound_ok = lost <= wal_options.sync_every;
        break;
      case persist::FsyncPolicy::kNever:
        // No durability promise, but the mid-stream checkpoint was
        // explicitly synced, so at least that horizon must survive.
        bound_ok = durable >= checkpoint_at;
        break;
    }
    APPCLASS_ENSURES(bound_ok);
    // recovery_seconds is the one crash's recovery, a single measurement.
    rows.push_back(
        bench::Fields()
            .text("policy", policy)
            .count("sync_every", wal_options.sync_every)
            .count("ingested_at_kill", total)
            .count("recovered", durable)
            .count("lost", lost)
            .flag("bound_ok", bound_ok)
            .flag("checkpoint_loaded", report.checkpoint_loaded)
            .count("replayed", report.replayed)
            .num("recovery_seconds", report.seconds)
            .object("wal_append",
                    bench::Fields().timing(append_seconds[p], "per_sec",
                                           static_cast<double>(total))));
  }
  std::filesystem::remove_all(scratch);
  return bench::write_report(
      args, bench::Fields().flag("bit_identical_prefix", true), rows);
}
