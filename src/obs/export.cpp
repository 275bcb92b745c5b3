#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string_view>

#include "common/json.hpp"

namespace appclass::obs {
namespace {

std::string format_double(double v, const char* fmt = "%.9g") {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, fmt, v);
  return buffer;
}

std::string short_double(double v) { return format_double(v, "%.4g"); }

/// `name{k=v,k2=v2}` display form (table header / JSON omit braces on
/// empty labels).
std::string display_name(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.append(k);
    out.push_back('=');
    out.append(v);
  }
  out.push_back('}');
  return out;
}

/// Table cell for HistogramSnapshot::quantile_bound: "-" when empty,
/// "inf" for the overflow bucket.
std::string quantile_cell(const HistogramSnapshot& h, double q) {
  const double bound = h.quantile_bound(q);
  if (std::isnan(bound)) return "-";
  return std::isinf(bound) ? "inf" : short_double(bound);
}

void json_labels_into(std::string& out, const Labels& labels) {
  out.append("{");
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    common::json_escape_into(out, k);
    out.append("\":\"");
    common::json_escape_into(out, v);
    out.push_back('"');
  }
  out.push_back('}');
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9' && !out.empty()) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? "_" : out;
}

void prom_labels_into(std::string& out, const Labels& labels,
                      const std::string& extra_key = {},
                      const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.append(prom_name(k));
    out.append("=\"");
    for (const char c : v) {
      if (c == '\\' || c == '"') out.push_back('\\');
      if (c == '\n') {
        out.append("\\n");
        continue;
      }
      out.push_back(c);
    }
    out.push_back('"');
  }
  if (!extra_key.empty()) {
    if (!first) out.push_back(',');
    out.append(extra_key);
    out.append("=\"");
    out.append(extra_value);
    out.push_back('"');
  }
  out.push_back('}');
}

void prom_type_line(std::string& out, std::set<std::string>& emitted,
                    const std::string& name, std::string_view type) {
  if (!emitted.insert(name).second) return;
  out.append("# TYPE ");
  out.append(name);
  out.push_back(' ');
  out.append(type);
  out.push_back('\n');
}

}  // namespace

std::string to_table(const RegistrySnapshot& snapshot) {
  std::string out;
  if (snapshot.empty()) return "(no metrics recorded)\n";

  std::size_t width = 24;
  for (const auto& c : snapshot.counters)
    width = std::max(width, display_name(c.name, c.labels).size());
  for (const auto& g : snapshot.gauges)
    width = std::max(width, display_name(g.name, g.labels).size());
  for (const auto& h : snapshot.histograms)
    width = std::max(width, display_name(h.name, h.labels).size());
  const int w = static_cast<int>(width);

  char line[256];
  if (!snapshot.counters.empty() || !snapshot.gauges.empty()) {
    std::snprintf(line, sizeof line, "%-*s %14s\n", w, "counter/gauge",
                  "value");
    out.append(line);
    for (const auto& c : snapshot.counters) {
      std::snprintf(line, sizeof line, "%-*s %14llu\n", w,
                    display_name(c.name, c.labels).c_str(),
                    static_cast<unsigned long long>(c.value));
      out.append(line);
    }
    for (const auto& g : snapshot.gauges) {
      std::snprintf(line, sizeof line, "%-*s %14s\n", w,
                    display_name(g.name, g.labels).c_str(),
                    short_double(g.value).c_str());
      out.append(line);
    }
  }
  if (!snapshot.histograms.empty()) {
    if (!out.empty()) out.push_back('\n');
    std::snprintf(line, sizeof line, "%-*s %10s %10s %10s %10s %10s\n", w,
                  "histogram (seconds)", "count", "mean", "p50", "p90",
                  "p99");
    out.append(line);
    for (const auto& h : snapshot.histograms) {
      std::snprintf(line, sizeof line,
                    "%-*s %10llu %10s %10s %10s %10s\n", w,
                    display_name(h.name, h.labels).c_str(),
                    static_cast<unsigned long long>(h.count),
                    h.count ? short_double(h.mean()).c_str() : "-",
                    quantile_cell(h, 0.50).c_str(),
                    quantile_cell(h, 0.90).c_str(),
                    quantile_cell(h, 0.99).c_str());
      out.append(line);
    }
  }
  return out;
}

std::string to_json(const RegistrySnapshot& snapshot) {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    common::json_escape_into(out, c.name);
    out.append("\",\"labels\":");
    json_labels_into(out, c.labels);
    out.append(",\"value\":");
    out.append(std::to_string(c.value));
    out.push_back('}');
  }
  out.append("],\"gauges\":[");
  first = true;
  for (const auto& g : snapshot.gauges) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    common::json_escape_into(out, g.name);
    out.append("\",\"labels\":");
    json_labels_into(out, g.labels);
    out.append(",\"value\":");
    out.append(format_double(g.value));
    out.push_back('}');
  }
  out.append("],\"histograms\":[");
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    common::json_escape_into(out, h.name);
    out.append("\",\"labels\":");
    json_labels_into(out, h.labels);
    out.append(",\"count\":");
    out.append(std::to_string(h.count));
    out.append(",\"sum\":");
    out.append(format_double(h.sum));
    out.append(",\"mean\":");
    out.append(format_double(h.mean()));
    out.append(",\"buckets\":[");
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i) out.push_back(',');
      out.append("{\"le\":");
      if (i < h.bounds.size()) {
        out.append(format_double(h.bounds[i]));
      } else {
        out.append("\"+Inf\"");
      }
      out.append(",\"count\":");
      out.append(std::to_string(h.bucket_counts[i]));
      out.push_back('}');
    }
    out.push_back(']');
    if (h.exemplar_trace_id != 0) {
      // Exemplars live in the JSON view only; the Prometheus text
      // exposition stays plain 0.0.4 so conformance parsers keep working.
      char hex[24];
      std::snprintf(hex, sizeof hex, "%llx",
                    static_cast<unsigned long long>(h.exemplar_trace_id));
      out.append(",\"exemplar\":{\"trace_id\":\"");
      out.append(hex);
      out.append("\",\"value\":");
      out.append(format_double(h.exemplar_value));
      out.push_back('}');
    }
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

std::string to_prometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  std::set<std::string> emitted;
  for (const auto& c : snapshot.counters) {
    const std::string name = prom_name(c.name);
    prom_type_line(out, emitted, name, "counter");
    out.append(name);
    prom_labels_into(out, c.labels);
    out.push_back(' ');
    out.append(std::to_string(c.value));
    out.push_back('\n');
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    prom_type_line(out, emitted, name, "gauge");
    out.append(name);
    prom_labels_into(out, g.labels);
    out.push_back(' ');
    out.append(format_double(g.value));
    out.push_back('\n');
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name);
    prom_type_line(out, emitted, name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      out.append(name);
      out.append("_bucket");
      prom_labels_into(out, h.labels, "le",
                       i < h.bounds.size()
                           ? format_double(h.bounds[i], "%g")
                           : "+Inf");
      out.push_back(' ');
      out.append(std::to_string(cumulative));
      out.push_back('\n');
    }
    out.append(name);
    out.append("_sum");
    prom_labels_into(out, h.labels);
    out.push_back(' ');
    out.append(format_double(h.sum));
    out.push_back('\n');
    out.append(name);
    out.append("_count");
    prom_labels_into(out, h.labels);
    out.push_back(' ');
    out.append(std::to_string(h.count));
    out.push_back('\n');
  }
  return out;
}

}  // namespace appclass::obs
