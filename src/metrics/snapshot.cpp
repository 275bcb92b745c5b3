#include "metrics/snapshot.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace appclass::metrics {

void DataPool::add(Snapshot snapshot) {
  if (node_ip_.empty()) node_ip_ = snapshot.node_ip;
  snapshots_.push_back(std::move(snapshot));
}

SimTime DataPool::start_time() const {
  APPCLASS_EXPECTS(!snapshots_.empty());
  return snapshots_.front().time;
}

SimTime DataPool::end_time() const {
  APPCLASS_EXPECTS(!snapshots_.empty());
  return snapshots_.back().time;
}

linalg::Matrix DataPool::to_observation_major(
    std::span<const MetricId> selected) const {
  linalg::Matrix a(snapshots_.size(), selected.size());
  for (std::size_t j = 0; j < snapshots_.size(); ++j)
    for (std::size_t i = 0; i < selected.size(); ++i)
      a(j, i) = snapshots_[j].get(selected[i]);
  return a;
}

std::string to_csv(const DataPool& pool) {
  std::ostringstream os;
  os << "time,node_ip";
  for (const auto& mi : schema()) os << ',' << mi.name;
  os << '\n';
  os.precision(10);
  for (const auto& s : pool.snapshots()) {
    os << s.time << ',' << s.node_ip;
    for (double v : s.values) os << ',' << v;
    os << '\n';
  }
  return os.str();
}

namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(',', start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

double parse_double(const std::string& cell) {
  double value = 0.0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end)
    throw std::runtime_error("DataPool CSV: bad numeric cell '" + cell + "'");
  return value;
}

}  // namespace

DataPool from_csv(const std::string& csv) {
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error("DataPool CSV: empty input");
  const auto header = split_line(line);
  if (header.size() != kMetricCount + 2)
    throw std::runtime_error("DataPool CSV: expected " +
                             std::to_string(kMetricCount + 2) + " columns");
  DataPool pool;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_line(line);
    if (cells.size() != kMetricCount + 2)
      throw std::runtime_error("DataPool CSV: row with wrong column count");
    Snapshot s;
    s.time = static_cast<SimTime>(parse_double(cells[0]));
    s.node_ip = cells[1];
    for (std::size_t i = 0; i < kMetricCount; ++i)
      s.values[i] = parse_double(cells[i + 2]);
    pool.add(std::move(s));
  }
  return pool;
}

}  // namespace appclass::metrics
