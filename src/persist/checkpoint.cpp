#include "persist/checkpoint.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>
#include <stdexcept>

#include "common/fs.hpp"
#include "common/text.hpp"
#include "obs/log.hpp"

namespace appclass::persist {
namespace {

constexpr std::string_view kMagic = "appclass-checkpoint v1";
constexpr std::string_view kFilePrefix = "checkpoint-";
constexpr std::string_view kFileSuffix = ".ckpt";

constexpr std::string_view kErrorPrefix = "checkpoint deserialization: ";

core::ApplicationClass read_class(std::istream& is,
                                  const common::TokenReader& in) {
  std::string name;
  if (!(is >> name)) in.fail("truncated class label");
  const auto label = core::class_from_string(name);
  if (!label) in.fail("unknown class '" + name + "'");
  return *label;
}

}  // namespace

std::string encode_checkpoint(const CheckpointData& data) {
  std::ostringstream os;
  os.precision(17);
  os << kMagic << '\n';
  os << "wal-next " << data.wal_next << '\n';
  os << "options " << data.options.sampling_interval_s << ' '
     << data.options.window << ' ' << data.options.stability << ' '
     << data.options.min_coverage << '\n';
  os << "online " << data.online.classified << ' ' << data.online.abstained
     << ' ' << data.online.nodes.size() << '\n';
  for (const auto& node : data.online.nodes) {
    os << "node " << node.node_ip << ' ' << node.first_time << ' '
       << node.coverage << ' '
       << (node.stable_class ? core::to_string(*node.stable_class)
                             : std::string_view("-"))
       << ' ' << core::to_string(node.candidate) << ' '
       << node.candidate_streak << ' ' << node.window.size();
    for (const auto& [time, label] : node.window)
      os << ' ' << time << ' ' << core::to_string(label);
    os << '\n';
  }
  // Byte-count framing: the CSV is opaque payload, newlines included.
  os << "appdb " << data.appdb_csv.size() << '\n' << data.appdb_csv << '\n';
  std::string body = os.str();
  common::seal_checksummed(body);
  return body;
}

CheckpointData decode_checkpoint(const std::string& text) {
  std::istringstream is(text);
  common::TokenReader in(is, kErrorPrefix);
  std::string_view view = text;
  if (view.empty()) in.fail("empty checkpoint file");
  if (view.rfind(kMagic, 0) != 0) in.fail("bad magic/version header");

  common::verify_checksummed(view, kErrorPrefix);

  std::string line;
  if (!std::getline(is, line) || line != kMagic)
    in.fail("bad magic/version header");

  CheckpointData data;
  in.expect_tag("wal-next");
  data.wal_next = in.read_u64();

  in.expect_tag("options");
  data.options.sampling_interval_s = static_cast<int>(in.read_int());
  data.options.window = in.read_size();
  data.options.stability = in.read_size();
  data.options.min_coverage = in.read_double();

  in.expect_tag("online");
  data.online.classified = in.read_size();
  data.online.abstained = in.read_size();
  const std::size_t node_count = in.read_size();
  data.online.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    in.expect_tag("node");
    core::OnlineNodeImage node;
    if (!(is >> node.node_ip)) in.fail("truncated node id");
    node.first_time = in.read_int();
    node.coverage = in.read_double();
    std::string stable;
    if (!(is >> stable)) in.fail("truncated stable class");
    if (stable != "-") {
      const auto label = core::class_from_string(stable);
      if (!label) in.fail("unknown class '" + stable + "'");
      node.stable_class = *label;
    }
    node.candidate = read_class(is, in);
    node.candidate_streak = in.read_size();
    const std::size_t window = in.read_size();
    node.window.reserve(window);
    for (std::size_t w = 0; w < window; ++w) {
      const metrics::SimTime time = in.read_int();
      node.window.emplace_back(time, read_class(is, in));
    }
    data.online.nodes.push_back(std::move(node));
  }

  in.expect_tag("appdb");
  const std::size_t appdb_bytes = in.read_size();
  if (!std::getline(is, line)) in.fail("truncated appdb section");
  data.appdb_csv.resize(appdb_bytes);
  if (appdb_bytes > 0 &&
      !is.read(data.appdb_csv.data(),
               static_cast<std::streamsize>(appdb_bytes)))
    in.fail("truncated appdb payload");
  return data;
}

std::vector<std::string> checkpoint_files(const std::string& dir) {
  return common::list_seq_files(dir, kFilePrefix, kFileSuffix);
}

std::string write_checkpoint(const std::string& dir,
                             const CheckpointData& data, std::size_t keep) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    common::throw_errno("cannot create checkpoint directory:", dir);
  const std::string path =
      dir + "/" +
      common::seq_file_name(kFilePrefix, data.wal_next, kFileSuffix);
  common::atomic_write_file(path, encode_checkpoint(data));

  const std::vector<std::string> files = checkpoint_files(dir);
  if (files.size() > keep) {
    for (std::size_t i = 0; i + keep < files.size(); ++i)
      ::unlink(files[i].c_str());
  }
  return path;
}

std::optional<LoadedCheckpoint> load_latest_checkpoint(
    const std::string& dir) {
  const std::vector<std::string> files = checkpoint_files(dir);
  std::size_t corrupt = 0;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      LoadedCheckpoint loaded{
          decode_checkpoint(common::read_file_or_throw(*it)), *it, corrupt};
      return loaded;
    } catch (const std::runtime_error& e) {
      ++corrupt;
      APPCLASS_LOG_WARN("checkpoint.corrupt_skipped", {"path", *it},
                        {"error", e.what()});
    }
  }
  return std::nullopt;
}

}  // namespace appclass::persist
