// The durable serving path, measured layer by layer inside the
// stream_ingest traced run: a real `appclass_cli serve --mode=worker`
// subprocess with a --state-dir, fed by one single-threaded
// dist::WorkerLink over one loopback connection. Frames are generated
// on-grid snapshots for a fleet of nodes; a frame is acked only after the
// worker's WAL append, so the ack path is wire, link, ingest and WAL
// append/fsync, with classification off it.
//
// This path is not an end-to-end workload of its own: on a shared
// virtual machine its acked-frames throughput and ack-latency tail moved
// by 40 % and by an order of magnitude between runs of one build, beyond
// any bound the benchmark can carry (see README.md). Its per-layer
// figures carry no bound and are recorded here.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "dist/http.hpp"
#include "dist/link.hpp"
#include "dist/serving.hpp"
#include "dist/wire.hpp"
#include "engine/fleet.hpp"
#include "gen.hpp"
#include "persist/checkpoint.hpp"
#include "persist/recovery.hpp"
#include "persist/wal.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Nodes the frames are spread over.
constexpr std::size_t kNodes = 256;
/// Open-loop offered load, frames per second: about a sixth of what the
/// link window sustains, and frequent enough that the worker's threads
/// never sleep long enough for a virtual CPU to halt between frames.
constexpr double kOfferedFramesPerS = 15000.0;
/// Frames appended through a restarted worker before the timed restarts:
/// the WAL tail every timed recovery replays.
constexpr std::uint64_t kTailFrames = 8192;
/// Frames the in-bench WAL and wire replicas process (traced run).
constexpr std::uint64_t kReplicaFrames = 2048;
/// Timed worker restarts on the state dir the run leaves behind.
constexpr int kRestarts = 3;
/// Phase shares of --seconds: untraced + traced saturating chunks, and
/// the traced open loop.
constexpr double kSaturatingShare = 0.2;
constexpr double kOpenShare = 0.15;
/// Untraced/traced chunk pairs in the traced run's saturating phase.
constexpr int kTracePairs = 5;
/// The served workers' WAL policy: one fsync per kSyncEvery appends. An
/// fsync per append (--fsync=always) on a shared virtual disk varied
/// 2-4x between runs; its cost is still measured in-bench
/// (persist.wal.append_fsync_always_s in the run record), and the WAL
/// tail that the timed restarts recover is written under fsync=always so
/// a crash loses none of it.
constexpr const char* kServedFsync = "interval";
constexpr std::size_t kSyncEvery = 256;
/// Worker checkpoint interval large enough that it never checkpoints on
/// its own during a run ("checkpoints deferred").
constexpr const char* kDeferredCheckpoints = "--checkpoint-every=1000000000";

/// One `appclass_cli serve --mode=worker` child process.
class WorkerProcess {
 public:
  WorkerProcess(const std::string& cli, const std::string& model,
                const std::string& state_dir, const std::string& log_path,
                const char* fsync_policy) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
    std::vector<std::string> argv_s = {
        cli, "serve", model, "--mode=worker", "--port=0", "--ingest-port=0",
        "--state-dir=" + state_dir, kDeferredCheckpoints,
        std::string("--fsync=") + fsync_policy,
        "--sync-every=" + std::to_string(kSyncEvery)};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    started_ns_ = now_ns();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Child: never outlive the benchmark.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (log_fd >= 0) ::close(log_fd);
    stdout_fd_ = out[0];
    try {
      read_ports();
    } catch (...) {
      kill();
      ::close(stdout_fd_);
      throw;
    }
  }

  ~WorkerProcess() {
    if (pid_ > 0) kill();
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  int pid() const noexcept { return pid_; }
  std::int64_t started_ns() const noexcept { return started_ns_; }
  std::uint16_t scrape_port() const noexcept { return scrape_port_; }
  std::uint16_t ingest_port() const noexcept { return ingest_port_; }
  /// SIGTERM and wait: the worker drains, syncs its WAL and writes a
  /// final checkpoint.
  void terminate() {
    ::kill(pid_, SIGTERM);
    reap(30'000);
  }

  /// SIGKILL and wait: a crash, leaving whatever the WAL holds.
  void kill() {
    ::kill(pid_, SIGKILL);
    reap(30'000);
  }

 private:
  void reap(int timeout_ms) {
    int status = 0;
    const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1'000'000;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    // Drain what the worker printed after start-up; the pipe closes with it.
    char buf[4096];
    while (::read(stdout_fd_, buf, sizeof buf) > 0) {
    }
  }

  void read_ports() {
    std::string text;
    const std::int64_t deadline = now_ns() + 60'000'000'000;
    while (ingest_port_ == 0) {
      pollfd p{stdout_fd_, POLLIN, 0};
      const int left_ms = static_cast<int>((deadline - now_ns()) / 1'000'000);
      if (left_ms <= 0 || ::poll(&p, 1, left_ms) <= 0)
        throw std::runtime_error("worker did not report its ports in time");
      char buf[1024];
      const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("worker exited during start-up");
      text.append(buf, static_cast<std::size_t>(n));
      unsigned port = 0;
      const auto serving = text.find("serving on 127.0.0.1:");
      if (serving != std::string::npos &&
          std::sscanf(text.c_str() + serving, "serving on 127.0.0.1:%u", &port) == 1)
        scrape_port_ = static_cast<std::uint16_t>(port);
      const auto ingest = text.find("worker ingest on 127.0.0.1:");
      if (ingest != std::string::npos && text.find('\n', ingest) != std::string::npos &&
          std::sscanf(text.c_str() + ingest, "worker ingest on 127.0.0.1:%u", &port) == 1)
        ingest_port_ = static_cast<std::uint16_t>(port);
    }
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::int64_t started_ns_ = 0;
  std::uint16_t scrape_port_ = 0;
  std::uint16_t ingest_port_ = 0;
};

/// Connects to the ingest port and decodes the worker's hello: the moment
/// a restarted worker accepts ingest again. Returns its WAL horizon.
std::uint64_t read_hello(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::vector<std::uint8_t> bytes(dist::kHelloBytes);
  std::size_t got = 0;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    while (got < bytes.size()) {
      const ssize_t n = ::recv(fd, bytes.data() + got, bytes.size() - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
  }
  ::close(fd);
  dist::Hello hello;
  if (got != bytes.size() ||
      dist::decode_hello(bytes, hello) != dist::DecodeStatus::kOk)
    throw std::runtime_error("worker hello not accepted");
  return hello.wal_next;
}

std::string http_or_throw(std::uint16_t port, const std::string& path) {
  dist::HttpGetOptions options;
  options.timeout_ms = 10000;
  const dist::HttpResult r = dist::http_get_ex("127.0.0.1", port, path, options);
  if (!r.ok())
    throw std::runtime_error("GET " + path + ": " + dist::to_string(r.error));
  return r.body;
}

/// The worker's /composition once everything acked is also drained: acks
/// follow the WAL append, the drain runs on the worker's own cadence.
std::string settled_composition(std::uint16_t port) {
  for (int i = 0; i < 2000; ++i) {
    const std::string replay = http_or_throw(port, "/replay");
    if (replay.find("\"backlog\":0,") != std::string::npos ||
        replay.find("\"backlog\":0}") != std::string::npos)
      return http_or_throw(port, "/composition");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("worker backlog did not drain");
}

/// sum and count of the worker's appclass_e2e_ingest_seconds histogram.
std::pair<double, double> e2e_ingest(std::uint16_t port) {
  const std::string text = http_or_throw(port, "/metrics");
  double sum = 0.0, count = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("appclass_e2e_ingest_seconds_sum", 0) == 0)
      sum = std::strtod(line.c_str() + line.rfind(' '), nullptr);
    else if (line.rfind("appclass_e2e_ingest_seconds_count", 0) == 0)
      count = std::strtod(line.c_str() + line.rfind(' '), nullptr);
  }
  return {sum, count};
}

struct Setup {
  std::vector<core::RecordedRun> runs;
  std::string model_path;
  std::string state_dir;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<WorkerProcess> worker;
  std::unique_ptr<dist::WorkerLink> link;
  /// Retirement times of frames while `record` is set (on_durable order
  /// is seq order).
  std::vector<std::int64_t> retired;
  bool record = false;
  std::uint64_t next_frame = 0;
  metrics::Snapshot frame;
  int spawns = 0;
};

/// Frame i: node order(i % N)'s on-grid snapshot number i / N.
const metrics::Snapshot& make_frame(Setup& s, std::uint64_t i) {
  const std::size_t n = s.fleet->order(i % kNodes);
  s.frame.node_ip = s.fleet->ip(n);
  s.fleet->fill_on_grid(n, i / kNodes, s.frame);
  return s.frame;
}

std::unique_ptr<WorkerProcess> spawn(const RunArgs& args, Setup& s,
                                     const char* fsync_policy = kServedFsync) {
  return std::make_unique<WorkerProcess>(
      args.cli, s.model_path, s.state_dir,
      args.workdir + "/worker-" + std::to_string(s.spawns++) + ".log",
      fsync_policy);
}

void connect_link(Setup& s) {
  dist::WorkerLinkOptions options;
  options.io_timeout_ms = 10000;
  options.on_durable = [&s](double) {
    if (s.record) s.retired.push_back(now_ns());
  };
  s.link = std::make_unique<dist::WorkerLink>("127.0.0.1",
                                              s.worker->ingest_port(), options);
}

bool send_frame(Setup& s) {
  return s.link->send(make_frame(s, s.next_frame++), obs::TraceContext{});
}

void set_up(const RunArgs& args, Setup& s) {
  s.runs = core::record_canonical_runs();
  core::TrainingSetup training;
  training.seed = sub_seed(args.seed, 7);
  const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline({}, training);
  s.model_path = args.workdir + "/durable_model.txt";
  core::save_pipeline_file(pipeline, s.model_path);
  s.fleet = std::make_unique<Fleet>(s.runs, args.seed, kNodes, 10);
  s.state_dir = args.workdir + "/durable_state";
  std::filesystem::remove_all(s.state_dir);
  s.worker = spawn(args, s);
  connect_link(s);
  // Warm-up: one frame per node, so the worker has registered the fleet
  // and the connection is up before anything is timed.
  s.next_frame = 0;
  for (std::size_t i = 0; i < kNodes; ++i) send_frame(s);
  if (!s.link->flush()) throw std::runtime_error("warm-up flush failed");
}

/// A FleetStream fed frames [0, frames) with the worker's model, exactly
/// as the worker's listener pushes them.
struct Reference {
  explicit Reference(const std::string& model_path)
      : pipeline(core::load_pipeline_file(model_path)), stream(pipeline) {}
  core::ClassificationPipeline pipeline;
  engine::FleetStream stream;
  std::uint64_t fed = 0;

  void feed_to(Setup& s, std::uint64_t frames) {
    for (; fed < frames; ++fed) {
      stream.push(make_frame(s, fed));
      if (fed % 4096 == 4095) stream.drain();
    }
    stream.drain();
  }
};

struct OpenOutcome {
  std::vector<double> ack_ms;   ///< per frame, from its due time
  std::vector<double> late_ms;  ///< per frame
  std::uint64_t frames = 0;
};

/// Open loop: frame j is due at start + j / rate and sent then, with up
/// to a link window of frames in flight; the link retires acks as they
/// arrive whenever the sender calls into it, so a retirement is observed
/// at most one send interval late. A frame's ack latency runs from its
/// due time to its durable-ack retirement.
OpenOutcome open_loop(Setup& s, double budget_s, Tracer* tracer) {
  OpenOutcome out;
  const auto frames = static_cast<std::uint64_t>(budget_s * kOfferedFramesPerS);
  const std::int64_t start = now_ns() + 1'000'000;
  const Schedule schedule(start, kOfferedFramesPerS);
  std::vector<std::int64_t> due(frames);
  s.retired.clear();
  s.retired.reserve(frames);
  s.record = true;
  for (std::uint64_t j = 0; j < frames; ++j) {
    due[j] = schedule.due_ns(j);
    wait_until_ns(due[j]);
    out.late_ms.push_back(lateness_ms(due[j], now_ns()));
    Span span(tracer, "dist.link.send");
    if (!send_frame(s)) throw std::runtime_error("link send stopped");
  }
  {
    Span span(tracer, "dist.link.flush");
    if (!s.link->flush()) throw std::runtime_error("link flush stopped");
  }
  s.record = false;
  if (s.retired.size() != frames)
    throw std::runtime_error("open loop: retirements do not match sends");
  for (std::uint64_t j = 0; j < frames; ++j)
    out.ack_ms.push_back(since_due_ms(due[j], s.retired[j]));
  out.frames = frames;
  return out;
}

struct SaturatingOutcome {
  double in_flight_mean = 0.0;
  std::uint64_t frames = 0;
  double wall_s = 0.0;
};

/// Closed loop limited by the link window: send frames back to back
/// until `budget_s` is spent, or exactly `fixed_frames` when that is > 0,
/// then flush. With a tracer, frame generation, each send and the final
/// flush carry spans.
SaturatingOutcome saturate(Setup& s, double budget_s,
                           std::uint64_t fixed_frames, Tracer* tracer) {
  SaturatingOutcome out;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(budget_s * 1e9);
  double in_flight = 0.0;
  for (std::int64_t t = start;
       fixed_frames > 0 ? out.frames < fixed_frames : t < end; t = now_ns()) {
    const metrics::Snapshot* frame = nullptr;
    {
      Span span(tracer, "loadgen.generate");
      frame = &make_frame(s, s.next_frame++);
    }
    {
      Span span(tracer, "dist.link.send");
      if (!s.link->send(*frame, obs::TraceContext{}))
        throw std::runtime_error("link send stopped");
    }
    in_flight += static_cast<double>(s.link->in_flight());
    ++out.frames;
  }
  {
    Span span(tracer, "dist.link.flush");
    if (!s.link->flush()) throw std::runtime_error("link flush stopped");
  }
  out.wall_s = seconds_between(start, now_ns());
  out.in_flight_mean =
      in_flight / static_cast<double>(std::max<std::uint64_t>(out.frames, 1));
  return out;
}

/// Graceful stop (final checkpoint), then a fixed WAL tail through a
/// worker restarted with checkpoints deferred and fsync=always, then a
/// crash: the state dir every timed recovery reads.
void leave_wal_tail(const RunArgs& args, Setup& s) {
  s.link.reset();
  s.worker->terminate();
  // One idle start/stop: its final checkpoint prunes the served run's
  // last segment (now followed by the idle worker's), so the timed
  // recoveries read the checkpoint and the tail only.
  s.worker = spawn(args, s);
  s.worker->terminate();
  s.worker = spawn(args, s, "always");
  connect_link(s);
  for (std::uint64_t i = 0; i < kTailFrames; ++i) send_frame(s);
  if (!s.link->flush()) throw std::runtime_error("tail flush failed");
  s.link.reset();
  s.worker->kill();
}

/// Phase 3: timed restarts on the state dir leave_wal_tail() left.
/// Returns the median spawn -> hello-accepted time; `composition` gets
/// the last restarted worker's settled /composition.
double restart_phase(const RunArgs& args, Setup& s, std::string& composition,
                     bool& horizon_ok) {
  leave_wal_tail(args, s);
  horizon_ok = true;
  std::vector<double> times;
  for (int rep = 0; rep < kRestarts; ++rep) {
    s.worker = spawn(args, s);
    const std::uint64_t horizon = read_hello(s.worker->ingest_port());
    times.push_back(seconds_between(s.worker->started_ns(), now_ns()));
    if (horizon != s.next_frame) horizon_ok = false;
    if (rep + 1 < kRestarts) s.worker->kill();
  }
  composition = settled_composition(s.worker->scrape_port());
  return median(times);
}

void measure(const RunArgs& args, Setup& s, Result& result) {
  // Saturating phase in untraced/traced chunk pairs of equal frame
  // counts (the first chunk fixes the count): the residual compares
  // each untraced chunk's wall time with its traced twin's span times.
  std::vector<double> residuals, overheads, in_flight;
  std::map<std::string, double> busy;
  std::uint64_t chunk_frames = 0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    const SaturatingOutcome plain = saturate(
        s, kSaturatingShare * args.seconds / kTracePairs, chunk_frames, nullptr);
    chunk_frames = plain.frames;
    Tracer chunk;
    const SaturatingOutcome traced = saturate(s, 0.0, chunk_frames, &chunk);
    const auto lt = chunk.layer_times();
    double layers = 0.0;
    for (const char* name : {"loadgen.generate", "dist.link.send", "dist.link.flush"})
      if (lt.count(name)) layers += lt.at(name).self_s;
    residuals.push_back(residual_ratio(plain.wall_s, layers));
    overheads.push_back(ratio(traced.wall_s, plain.wall_s));
    in_flight.push_back(traced.in_flight_mean);
    if (pair + 1 == kTracePairs &&
        !chunk.write_chrome_trace(args.workdir + "/durable-trace.json"))
      std::fprintf(stderr, "perfbench: cannot write chrome trace\n");
  }

  // Open loop with send/flush spans, and the worker's own ingest latency
  // over it.
  const auto [sum0, count0] = e2e_ingest(s.worker->scrape_port());
  Tracer open_tracer;
  const OpenOutcome open = open_loop(s, kOpenShare * args.seconds, &open_tracer);
  const auto [sum1, count1] = e2e_ingest(s.worker->scrape_port());
  const auto ot = open_tracer.layer_times();
  const auto self = [&](const char* name) {
    return ot.count(name) ? ot.at(name).self_s : 0.0;
  };

  // In-bench replicas on the same filesystem: wire encode, and WALs with
  // the served workers' fsync policy and with fsync=always, over the
  // same frames.
  double encode_s = 0.0;
  std::uint64_t wire_bytes = 0;
  for (std::uint64_t i = 0; i < kReplicaFrames; ++i) {
    const metrics::Snapshot& frame = make_frame(s, i);
    const std::int64_t t0 = now_ns();
    const std::vector<std::uint8_t> bytes =
        dist::encode_frame(frame, i, obs::TraceContext{}, dist::wall_now_us());
    encode_s += seconds_between(t0, now_ns());
    wire_bytes += bytes.size();
  }
  const auto replica_wal = [&](persist::FsyncPolicy policy, std::uint64_t& bytes) {
    const std::string dir = args.workdir + "/replica_wal";
    std::filesystem::remove_all(dir);
    double busy = 0.0;
    {
      persist::WalOptions options;
      options.fsync = policy;
      options.sync_every = kSyncEvery;
      persist::WalWriter wal(dir, options);
      for (std::uint64_t i = 0; i < kReplicaFrames; ++i) {
        const metrics::Snapshot& frame = make_frame(s, i);
        const std::int64_t t0 = now_ns();
        wal.append(frame);
        busy += seconds_between(t0, now_ns());
      }
    }
    bytes = 0;
    for (const std::string& seg : persist::wal_segments(dir))
      bytes += std::filesystem::file_size(seg);
    return busy;
  };
  std::uint64_t wal_bytes = 0, always_bytes = 0;
  const double append_s =
      replica_wal(*persist::fsync_policy_from_string(kServedFsync), wal_bytes);
  result.details["persist.wal.append_fsync_always_s"] =
      replica_wal(persist::FsyncPolicy::kAlways, always_bytes);

  // Gates: every frame acked, and the worker's composition equals an
  // in-process FleetStream fed the same frames, before and after a
  // restart on the state dir the run leaves behind.
  const std::uint64_t reconnects = s.link->reconnects();
  result.gate("durable.sent_equals_acked",
              s.link->sent() == s.link->acked() &&
                  s.link->acked() == s.next_frame);
  Reference reference(s.model_path);
  reference.feed_to(s, s.next_frame);
  result.gate("durable.composition_before_restart",
              settled_composition(s.worker->scrape_port()) ==
                  serving::composition_text(reference.stream.online()));
  std::string after;
  bool horizon_ok = false;
  result.details["durable.worker_restart_s"] =
      restart_phase(args, s, after, horizon_ok);
  reference.feed_to(s, s.next_frame);
  result.gate("durable.restart_horizon", horizon_ok);
  result.gate("durable.composition_after_restart",
              after == serving::composition_text(reference.stream.online()));
  s.worker->kill();

  // Checkpoint write of the state the worker holds, and recovery of the
  // worker's own state dir with its WAL tail, both in-bench.
  const std::string ckpt_dir = args.workdir + "/replica_checkpoints";
  std::filesystem::remove_all(ckpt_dir);
  persist::CheckpointData data;
  data.wal_next = s.next_frame;
  data.options = reference.stream.online().options();
  data.online = reference.stream.online().export_state();
  const std::int64_t c0 = now_ns();
  persist::write_checkpoint(ckpt_dir, data);
  const double checkpoint_s = seconds_between(c0, now_ns());
  core::OnlineClassifier recovered(reference.pipeline);
  const persist::RecoveryReport report =
      persist::recover(s.state_dir, reference.pipeline, recovered);
  result.gate("durable.recovered_state_identical",
              serving::composition_text(recovered) ==
                  serving::composition_text(reference.stream.online()));

  result.set("dist.wire.encode.busy_s", encode_s);
  result.set("dist.wire.bytes", static_cast<double>(wire_bytes));
  result.set("persist.wal.append.busy_s", append_s);
  result.set("persist.wal.appends", static_cast<double>(kReplicaFrames));
  result.set("persist.wal.bytes", static_cast<double>(wal_bytes));
  result.set("worker.e2e_ingest_mean_ms",
             count1 > count0 ? (sum1 - sum0) / (count1 - count0) * 1e3 : 0.0);
  result.set("dist.link.send.busy_s", self("dist.link.send"));
  result.set("dist.link.flush.wait_s", self("dist.link.flush"));
  result.set("dist.link.in_flight_mean", median(in_flight));
  result.set("dist.link.reconnects", static_cast<double>(reconnects));
  result.set("persist.checkpoint.write.busy_s", checkpoint_s);
  result.set("durable.residual_ratio", std::abs(median(residuals)));
  result.set("persist.recovery.busy_s", report.seconds);
  result.set("persist.recovery.replayed", static_cast<double>(report.replayed));
  result.details["durable.residual_signed"] = median(residuals);
  result.details["durable.trace_overhead_ratio"] = median(overheads);
  result.details["durable.loadgen_late_p99_ms"] = summarize(open.late_ms).p99;
  result.details["durable.open_frames"] = static_cast<double>(open.frames);
  result.details["durable.chunk_frames"] = static_cast<double>(chunk_frames);
  result.details["durable.frames"] = static_cast<double>(s.next_frame);
}

}  // namespace

void measure_durable_path(const RunArgs& args, Result& result) {
  if (args.cli.empty()) throw std::runtime_error("the durable path needs --cli");
  Setup s;
  set_up(args, s);
  measure(args, s, result);
}

}  // namespace perfbench
