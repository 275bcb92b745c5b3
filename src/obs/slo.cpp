#include "obs/slo.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/assert.hpp"

namespace appclass::obs {
namespace {

/// Unhealthy when an indicator burns faster than its budget allows in
/// BOTH windows.
constexpr double kAlertBurnRate = 1.0;

/// The long window is 12 short windows (5 minutes : 1 hour).
int long_window_s(const SloOptions& options) {
  return 12 * options.short_window_s;
}

}  // namespace

SloTracker::SloTracker(SloOptions options)
    : options_(options),
      freshness_(static_cast<std::size_t>(
          std::max(long_window_s(options), 1))),
      availability_(static_cast<std::size_t>(
          std::max(long_window_s(options), 1))) {
  APPCLASS_EXPECTS(options_.objective > 0.0 && options_.objective < 1.0);
  APPCLASS_EXPECTS(options_.short_window_s > 0);
}

void SloTracker::Sli::advance(std::int64_t now_s) {
  if (head_s < 0) {
    head_s = now_s;
    return;
  }
  if (now_s <= head_s) return;  // clock went backwards: clamp to head
  const std::int64_t gap = now_s - head_s;
  if (gap >= static_cast<std::int64_t>(buckets.size())) {
    std::fill(buckets.begin(), buckets.end(), std::pair<std::uint32_t,
                                                        std::uint32_t>{0, 0});
  } else {
    for (std::int64_t s = head_s + 1; s <= now_s; ++s)
      buckets[static_cast<std::size_t>(s) % buckets.size()] = {0, 0};
  }
  head_s = now_s;
}

void SloTracker::Sli::record(bool good, std::int64_t now_s) {
  advance(now_s);
  auto& bucket = buckets[static_cast<std::size_t>(head_s) % buckets.size()];
  if (good) {
    ++bucket.first;
  } else {
    ++bucket.second;
  }
}

SloTracker::WindowReport SloTracker::Sli::window(int window_s,
                                                 std::int64_t now_s,
                                                 double objective) const {
  WindowReport out;
  out.window_s = window_s;
  if (head_s < 0) return out;
  // Sum the seconds (now - window, now] that have been written since the
  // last wrap; seconds ahead of head_s hold stale lap data only if the
  // ring were read unadvanced, so the caller advances first.
  for (std::int64_t s = std::max<std::int64_t>(now_s - window_s + 1, 0);
       s <= std::min(now_s, head_s); ++s) {
    const auto& bucket = buckets[static_cast<std::size_t>(s) % buckets.size()];
    out.good += bucket.first;
    out.bad += bucket.second;
  }
  const std::uint64_t total = out.good + out.bad;
  if (total > 0)
    out.error_rate = static_cast<double>(out.bad) /
                     static_cast<double>(total);
  out.burn_rate = out.error_rate / (1.0 - objective);
  return out;
}

void SloTracker::record_freshness(double latency_s, std::int64_t now_s) {
  const std::lock_guard lock(mutex_);
  freshness_.record(latency_s <= options_.freshness_threshold_s, now_s);
}

void SloTracker::record_availability(bool ok, std::int64_t now_s) {
  const std::lock_guard lock(mutex_);
  availability_.record(ok, now_s);
}

SloTracker::Report SloTracker::report(std::int64_t now_s) const {
  const std::lock_guard lock(mutex_);
  Report out;
  const double objective = options_.objective;
  const auto fill = [&](Sli& sli, SliReport& r) {
    sli.advance(now_s);
    r.objective = objective;
    r.short_window = sli.window(options_.short_window_s, now_s, objective);
    r.long_window = sli.window(long_window_s(options_), now_s, objective);
    r.burning = r.short_window.burn_rate > kAlertBurnRate &&
                r.long_window.burn_rate > kAlertBurnRate;
  };
  // advance() mutates the rings, so shed const inside the lock.
  auto* self = const_cast<SloTracker*>(this);
  fill(self->freshness_, out.freshness);
  fill(self->availability_, out.availability);
  out.healthy = !out.freshness.burning && !out.availability.burning;
  return out;
}

bool SloTracker::healthy(std::int64_t now_s) const {
  return report(now_s).healthy;
}

namespace {

void window_json_into(std::string& out, const char* key,
                      const SloTracker::WindowReport& w) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "\"%s\":{\"window_s\":%d,\"good\":%llu,\"bad\":%llu,"
                "\"error_rate\":%.6g,\"burn_rate\":%.6g}",
                key, w.window_s, static_cast<unsigned long long>(w.good),
                static_cast<unsigned long long>(w.bad), w.error_rate,
                w.burn_rate);
  out.append(buffer);
}

void sli_json_into(std::string& out, const char* key,
                   const SloTracker::SliReport& sli) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                "\"%s\":{\"objective\":%.6g,\"burning\":%s,", key,
                sli.objective, sli.burning ? "true" : "false");
  out.append(buffer);
  window_json_into(out, "short", sli.short_window);
  out.push_back(',');
  window_json_into(out, "long", sli.long_window);
  out.push_back('}');
}

}  // namespace

std::string SloTracker::to_json(std::int64_t now_s) const {
  const Report r = report(now_s);
  std::string out = "{\"healthy\":";
  out.append(r.healthy ? "true" : "false");
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                ",\"now_s\":%lld,\"freshness_threshold_s\":%.6g,",
                static_cast<long long>(now_s),
                options_.freshness_threshold_s);
  out.append(buffer);
  sli_json_into(out, "freshness", r.freshness);
  out.push_back(',');
  sli_json_into(out, "availability", r.availability);
  out.append("}\n");
  return out;
}

std::int64_t SloTracker::now_s() noexcept {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace appclass::obs
