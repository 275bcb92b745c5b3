// Write-ahead log: append/replay round trip, segment rotation, torn-tail
// semantics, pruning, and the crash-loss bounds of each fsync policy
// (simulate_crash models SIGKILL: written bytes survive in the page
// cache, the user-space buffer vanishes).
#include "persist/wal.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core_test_util.hpp"
#include "monitor/wire.hpp"

namespace appclass::persist {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/appclass_wal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Deterministic snapshot stream (same seed => same bytes).
  static std::vector<metrics::Snapshot> stream(std::size_t n) {
    linalg::Rng rng(7);
    std::vector<metrics::Snapshot> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto s = core::testing::synthetic_snapshot(
          core::class_from_index(i % core::kClassCount), rng,
          static_cast<metrics::SimTime>(i));
      s.node_ip = i % 2 == 0 ? "10.0.0.1" : "10.0.0.2";
      out.push_back(std::move(s));
    }
    return out;
  }

  std::string dir_;
};

TEST_F(WalTest, AppendReplayRoundTrip) {
  const auto snapshots = stream(12);
  {
    WalWriter wal(dir_);
    for (const auto& s : snapshots) wal.append(s);
    EXPECT_EQ(wal.next_seq(), 12u);
    EXPECT_EQ(wal.appended(), 12u);
  }
  std::vector<WalRecord> records;
  const WalScan scan = replay_wal(
      dir_, 0, [&](const WalRecord& r) { records.push_back(r); });
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(scan.records, 12u);
  EXPECT_EQ(scan.last_seq, 11u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    // Wire-level bit identity: the replayed snapshot re-encodes to the
    // exact bytes the original produced.
    EXPECT_EQ(monitor::encode_packet(records[i].snapshot),
              monitor::encode_packet(snapshots[i]));
  }
}

TEST_F(WalTest, ReplayFromSeqSkipsPrefix) {
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(10)) wal.append(s);
  }
  std::vector<std::uint64_t> seqs;
  replay_wal(dir_, 6, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST_F(WalTest, RotationSplitsSegmentsAndReplaysInOrder) {
  {
    WalWriter wal(dir_, {.max_segment_bytes = 512});
    for (const auto& s : stream(24)) wal.append(s);
  }
  EXPECT_GE(wal_segments(dir_).size(), 3u);
  std::vector<std::uint64_t> seqs;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(seqs.size(), 24u);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST_F(WalTest, TornTailIsReportedNotFatal) {
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(6)) wal.append(s);
  }
  const auto segments = wal_segments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  // Chop a few bytes off the final record: the artifact of a crash
  // mid-append.
  const auto size = std::filesystem::file_size(segments[0]);
  std::filesystem::resize_file(segments[0], size - 5);

  std::uint64_t delivered = 0;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(scan.last_seq, 4u);
}

TEST_F(WalTest, TornRecordTerminatesOnlyItsSegment) {
  // Two segments; tear the FIRST one's tail. The second segment (written
  // by a "post-recovery process") must still replay.
  {
    WalWriter wal(dir_, {.max_segment_bytes = 400});
    for (const auto& s : stream(12)) wal.append(s);
  }
  const auto segments = wal_segments(dir_);
  ASSERT_GE(segments.size(), 2u);
  const auto size = std::filesystem::file_size(segments[0]);
  std::filesystem::resize_file(segments[0], size - 3);

  std::vector<std::uint64_t> seqs;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_TRUE(scan.truncated_tail);
  ASSERT_FALSE(seqs.empty());
  // Records from the later segment survived the earlier segment's tear.
  EXPECT_EQ(seqs.back(), 11u);
}

TEST_F(WalTest, AlwaysPolicySurvivesSigkillWithZeroLoss) {
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kAlways});
  for (const auto& s : stream(9)) wal.append(s);
  wal.simulate_crash();
  std::uint64_t delivered = 0;
  replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_EQ(delivered, 9u);
}

TEST_F(WalTest, IntervalPolicyBoundsLossToSyncInterval) {
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kInterval, .sync_every = 4});
  for (const auto& s : stream(10)) wal.append(s);
  wal.simulate_crash();
  std::uint64_t delivered = 0;
  replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  // Synced after records 4 and 8; 9 and 10 were in the lost buffer.
  EXPECT_EQ(delivered, 8u);
}

TEST_F(WalTest, NeverPolicyCanLoseEverythingBuffered) {
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kNever});
  for (const auto& s : stream(10)) wal.append(s);
  wal.simulate_crash();
  std::uint64_t delivered = 0;
  replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_EQ(delivered, 0u);
}

TEST_F(WalTest, AppendAfterCrashThrows) {
  WalWriter wal(dir_);
  wal.append(stream(1)[0]);
  wal.simulate_crash();
  EXPECT_THROW(wal.append(stream(1)[0]), std::runtime_error);
}

TEST_F(WalTest, PruneDeletesCoveredSegmentsNeverTheActiveOne) {
  WalWriter wal(dir_, {.max_segment_bytes = 400});
  for (const auto& s : stream(18)) wal.append(s);
  const auto before = wal_segments(dir_);
  ASSERT_GE(before.size(), 3u);
  // A checkpoint at the horizon covers every record; only whole segments
  // strictly below the active one may go.
  const std::size_t removed = wal.prune_through(wal.next_seq() - 1);
  const auto after = wal_segments(dir_);
  EXPECT_EQ(before.size() - removed, after.size());
  EXPECT_GE(after.size(), 1u);
  // Everything still replayable is exactly the active segment's records.
  std::vector<std::uint64_t> seqs;
  replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.back(), 17u);
}

TEST_F(WalTest, SyncFromAnotherThreadNeverTearsAnAppend) {
  // A serving worker appends on its ingest thread while its drain loop
  // runs the checkpoint barrier's sync on another.
  const auto snapshots = stream(20000);
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kNever});
  std::atomic<bool> done{false};
  std::thread barrier([&] {
    while (!done.load()) wal.sync();
  });
  for (const auto& s : snapshots) wal.append(s);
  done = true;
  barrier.join();
  wal.sync();
  std::vector<std::uint64_t> seqs;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(seqs.size(), snapshots.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) ASSERT_EQ(seqs[i], i);
}

TEST_F(WalTest, ResumesNumberingAcrossRestart) {
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(5)) wal.append(s);
  }
  {
    WalWriter wal(dir_, {}, 5);  // recovery passes last replayed + 1
    EXPECT_EQ(wal.append(stream(6)[5]), 5u);
  }
  std::vector<std::uint64_t> seqs;
  replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(WalTest, MissingDirectoryIsAnEmptyScan) {
  const WalScan scan = replay_wal(dir_ + "/nope", 0, [](const WalRecord&) {});
  EXPECT_EQ(scan.records, 0u);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.segments, 0u);
}

TEST(WalPolicy, StringRoundTrip) {
  for (const auto policy : {FsyncPolicy::kAlways, FsyncPolicy::kInterval,
                            FsyncPolicy::kNever}) {
    const auto parsed = fsync_policy_from_string(to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(fsync_policy_from_string("sometimes").has_value());
}

}  // namespace
}  // namespace appclass::persist
