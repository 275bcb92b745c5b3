// Golden bytes for every output format that is a compatibility contract:
// dist frame / hello / ack, a monitor::wire packet, a WAL segment, a
// checkpoint, a v2 model file, federated /fleet/metrics text, Chrome trace
// JSON (stitched and recorded), the JSON stats export and ShardMap
// ownership. Each case feeds one fixed input and compares the exact bytes,
// so a refactor of the shared hash, checksum-footer, JSON-escaping or
// socket code cannot change what goes to disk or onto the wire unnoticed.
// The expected values were captured from the encoders and must only change
// together with a deliberate format version bump.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fs.hpp"
#include "core/serialize.hpp"
#include "dist/shard.hpp"
#include "dist/wire.hpp"
#include "monitor/wire.hpp"
#include "obs/export.hpp"
#include "obs/federate.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace appclass {
namespace {

metrics::Snapshot golden_snapshot() {
  metrics::Snapshot s;
  s.time = 25;
  s.node_ip = "10.0.2.1";
  s.set(metrics::MetricId::kCpuUser, 93.5);
  s.set(metrics::MetricId::kBytesIn, 1.25e6);
  s.set(metrics::MetricId::kSwapOut, 42.0);
  return s;
}

obs::TraceContext golden_trace() {
  obs::TraceContext trace;
  trace.trace_id = 0xDEADBEEFCAFEF00Dull;
  trace.span_id = 0x123456789ABCDEF0ull;
  trace.parent_span_id = 0x0F1E2D3C4B5A6978ull;
  return trace;
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string hex(std::string_view text) {
  return hex({reinterpret_cast<const std::uint8_t*>(text.data()),
              text.size()});
}

/// One WAL segment holding a single record, as the writer leaves it.
std::string wal_segment_bytes() {
  char tmpl[] = "/tmp/appclass_golden_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) return {};
  const std::string dir = tmpl;
  {
    persist::WalWriter writer(dir, {}, 5);
    writer.append(golden_snapshot());
  }
  const auto segments = persist::wal_segments(dir);
  std::string bytes =
      segments.size() == 1 ? common::read_file_or_throw(segments[0]) : "";
  std::filesystem::remove_all(dir);
  return bytes;
}

persist::CheckpointData golden_checkpoint() {
  persist::CheckpointData data;
  data.wal_next = 42;
  data.options.sampling_interval_s = 5;
  data.options.window = 4;
  data.options.stability = 2;
  data.options.min_coverage = 0.5;
  data.online.classified = 7;
  data.online.abstained = 1;
  core::OnlineNodeImage node;
  node.node_ip = "10.0.0.9";
  node.first_time = 5;
  node.coverage = 0.75;
  node.stable_class = core::ApplicationClass::kCpu;
  node.candidate = core::ApplicationClass::kIo;
  node.candidate_streak = 1;
  node.window = {{5, core::ApplicationClass::kCpu},
                 {10, core::ApplicationClass::kIo}};
  data.online.nodes.push_back(node);
  data.appdb_csv = "app,node\nx,y\n";
  return data;
}

/// A v1 model (no footer): loading it and saving it again yields v2.
constexpr std::string_view kModelV1 =
    "appclass-pipeline v1\n"
    "metrics 2 cpu_user bytes_in\n"
    "norm-mean 50 1000\n"
    "norm-stddev 10 250\n"
    "pca 2 1\n"
    "pca-mean 0 0\n"
    "pca-eigenvalues 1.5 0.5\n"
    "pca-row 0.75\n"
    "pca-row -0.5\n"
    "knn 3 1 euclidean\n"
    "cpu 1.25\n"
    "io -0.5\n"
    "idle 0\n";

std::string fleet_metrics_text() {
  obs::MetricsRegistry w0;
  w0.counter("appclass_frames_total").inc(40);
  w0.gauge("appclass_backlog", {{"node", "a\\b\"c\nd"}}).set(0.25);
  obs::Histogram& h0 = w0.histogram("appclass_stage_seconds",
                                    {{"stage", "ingest"}}, {0.125, 0.5, 2.0});
  h0.observe(0.0625);
  h0.observe(4.0);
  obs::MetricsRegistry w1;
  w1.counter("appclass_frames_total").inc(2);
  w1.gauge("appclass_backlog", {{"node", "a\\b\"c\nd"}}).set(-1.5);
  obs::Histogram& h1 = w1.histogram("appclass_stage_seconds",
                                    {{"stage", "ingest"}}, {0.125, 0.5, 2.0});
  h1.observe(0.25);
  const obs::FederationResult merged = obs::federate_snapshots(
      {{"0", w0.snapshot()}, {"1", w1.snapshot()}});
  return obs::to_prometheus(merged.merged);
}

/// Event name holding every character class the escaper distinguishes.
constexpr std::string_view kAwkwardName = "q\"b\\n\nt\tc\x01z";

std::string stitched_trace() {
  const std::string dump =
      "{\"epochWallUs\":1000,\"traceEvents\":[{\"name\":"
      "\"q\\\"b\\\\n\\nt\\tc\\u0001z\",\"cat\":\"appclass\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":3,\"ts\":10,\"dur\":4,"
      "\"args\":{\"k\\\"ey\":\"v\\u0001\"}}]}";
  return obs::stitch_chrome_traces({{"work\"er", dump}}).json;
}

std::vector<std::size_t> shard_owners() {
  const dist::ShardMap map(4);
  std::vector<std::size_t> owners;
  for (const char* ip :
       {"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5",
        "10.0.1.17", "192.168.7.40", "172.16.0.254", "10.9.8.7",
        "10.20.30.40", "8.8.4.4", "10.1.2.3", ""})
    owners.push_back(map.shard_for(ip));
  return owners;
}

/// The flight recorder's own dump of one span named kAwkwardName, from
/// the event list on (the header carries this process's wall clock).
std::string recorder_events() {
  obs::TraceRecorder recorder;
  recorder.record_span(kAwkwardName, golden_trace(), 10, 4,
                       {{"k\"ey", "v\x01"}});
  const std::string json = recorder.to_chrome_json();
  const std::size_t at = json.find("\"traceEvents\":[");
  return at == std::string::npos ? json : json.substr(at);
}

std::string stats_json() {
  obs::MetricsRegistry reg;
  reg.counter("appclass_frames_total", {{"node", "a\\b\"c\nd\x01"}}).inc(3);
  return obs::to_json(reg.snapshot());
}

constexpr std::string_view kPacketHex =
    "41504d4300010ef12b9c0000000000000019000831302e302e322e3140576000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000413312d0"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000040450000"
    "00000000";

constexpr std::string_view kFrameHex =
    "41534e5002000000000000004ddeadbeefcafef00d123456789abcdef000060a"
    "24182022400000012441504d4300010ef12b9c0000000000000019000831302e"
    "302e322e31405760000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000413312d00000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000004045000000000000c14933430473fa9d";

constexpr std::string_view kHelloHex =
    "41534e48020102030405060708e2c6454e5c36550d";

constexpr std::string_view kAckHex =
    "41534e411122334455667788";

constexpr std::string_view kWalSegmentHex =
    "617070636c6173732d77616c2076310a57414c52000000000000000500000124"
    "41504d4300010ef12b9c0000000000000019000831302e302e322e3140576000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000413312d0"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000040450000"
    "0000000014a1a94f9fc72f5a";

constexpr std::string_view kCheckpoint =
    "appclass-checkpoint v1\n"
    "wal-next 42\n"
    "options 5 4 2 0.5\n"
    "online 7 1 1\n"
    "node 10.0.0.9 5 0.75 cpu io 1 2 5 cpu 10 io\n"
    "appdb 13\n"
    "app,node\n"
    "x,y\n"
    "\n"
    "checksum ee1c240256b16c97\n";

constexpr std::string_view kModelV2 =
    "appclass-pipeline v2\n"
    "metrics 2 cpu_user bytes_in\n"
    "norm-mean 50 1000\n"
    "norm-stddev 10 250\n"
    "pca 2 1\n"
    "pca-mean 0 0\n"
    "pca-eigenvalues 1.5 0.5\n"
    "pca-row 0.75\n"
    "pca-row -0.5\n"
    "knn 3 1 euclidean\n"
    "cpu 1.25\n"
    "io -0.5\n"
    "idle 0\n"
    "checksum 0f9ae01574ad4e54\n";

constexpr std::string_view kFleetMetrics =
    "# TYPE appclass_frames_total counter\n"
    "appclass_frames_total 42\n"
    "# TYPE appclass_backlog gauge\n"
    "appclass_backlog{node=\"a\\\\b\\\"c\\nd\",worker=\"0\"} 0.25\n"
    "appclass_backlog{node=\"a\\\\b\\\"c\\nd\",worker=\"1\"} -1.5\n"
    "# TYPE appclass_stage_seconds histogram\n"
    "appclass_stage_seconds_bucket{stage=\"ingest\",le=\"0.125\"} 1\n"
    "appclass_stage_seconds_bucket{stage=\"ingest\",le=\"0.5\"} 2\n"
    "appclass_stage_seconds_bucket{stage=\"ingest\",le=\"2\"} 2\n"
    "appclass_stage_seconds_bucket{stage=\"ingest\",le=\"+Inf\"} 3\n"
    "appclass_stage_seconds_sum{stage=\"ingest\"} 4.3125\n"
    "appclass_stage_seconds_count{stage=\"ingest\"} 3\n";

constexpr std::string_view kStitchedTrace =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"work\\\"er\"}},\n"
    "{\"name\":\"q\\\"b\\\\n\\nt\\tc\\u0001z\",\"ph\":\"X\",\"cat\":\"appclass\",\"pid\":1,\"tid\":3,\"ts\":10,\"dur\":4,\"args\":{\"k\\\"ey\":\"v\\u0001\"}}\n"
    "]}\n";

constexpr std::string_view kRecorderEvents =
    "\"traceEvents\":[\n"
    "{\"name\":\"q\\\"b\\\\n\\nt\\tc\\u0001z\",\"cat\":\"appclass\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":10,\"dur\":4,\"args\":{\"trace_id\":\"deadbeefcafef00d\",\"span_id\":\"123456789abcdef0\",\"parent_span_id\":\"f1e2d3c4b5a6978\",\"k\\\"ey\":\"v\\u0001\"}}\n"
    "]}\n";

constexpr std::string_view kStatsJson =
    "{\"counters\":[{\"name\":\"appclass_frames_total\",\"labels\":{\"node\":\"a\\\\b\\\"c\\nd\\u0001\"},\"value\":3}],\"gauges\":[],\"histograms\":[]}";

TEST(GoldenBytes, MonitorWirePacket) {
  EXPECT_EQ(hex(monitor::encode_packet(golden_snapshot())), kPacketHex);
}

TEST(GoldenBytes, DistFrameHelloAndAck) {
  EXPECT_EQ(hex(dist::encode_frame(golden_snapshot(), 77, golden_trace(),
                                   1700000000123456ull)),
            kFrameHex);
  EXPECT_EQ(hex(dist::encode_hello({.wal_next = 0x0102030405060708ull})),
            kHelloHex);
  EXPECT_EQ(hex(dist::encode_ack(0x1122334455667788ull)), kAckHex);
}

TEST(GoldenBytes, WalSegmentRecord) {
  EXPECT_EQ(hex(wal_segment_bytes()), kWalSegmentHex);
}

TEST(GoldenBytes, CheckpointText) {
  EXPECT_EQ(persist::encode_checkpoint(golden_checkpoint()), kCheckpoint);
  const persist::CheckpointData decoded =
      persist::decode_checkpoint(std::string(kCheckpoint));
  EXPECT_EQ(persist::encode_checkpoint(decoded), kCheckpoint);
}

TEST(GoldenBytes, ModelFileV2) {
  const std::string saved =
      core::save_pipeline(core::load_pipeline(std::string(kModelV1)));
  EXPECT_EQ(saved, kModelV2);
  EXPECT_EQ(core::save_pipeline(core::load_pipeline(std::string(kModelV2))),
            kModelV2);
}

TEST(GoldenBytes, FleetMetricsFederationText) {
  EXPECT_EQ(fleet_metrics_text(), kFleetMetrics);
}

TEST(GoldenBytes, ChromeTraceEscaping) {
  EXPECT_EQ(stitched_trace(), kStitchedTrace);
  EXPECT_EQ(recorder_events(), kRecorderEvents);
}

TEST(GoldenBytes, StatsJsonEscaping) { EXPECT_EQ(stats_json(), kStatsJson); }

TEST(GoldenBytes, ShardMapOwners) {
  EXPECT_EQ(shard_owners(),
            (std::vector<std::size_t>{0, 0, 0, 0, 0, 1, 1, 0, 2, 0, 3, 2, 0}));
}

}  // namespace
}  // namespace appclass
