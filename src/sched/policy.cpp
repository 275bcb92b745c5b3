#include "sched/policy.hpp"

#include "common/assert.hpp"

namespace appclass::sched {

const WeightedSchedule& pick_class_aware(
    const std::vector<WeightedSchedule>& schedules,
    const std::map<char, core::ApplicationClass>& classes) {
  APPCLASS_EXPECTS(!schedules.empty());
  const WeightedSchedule* best = &schedules.front();
  int best_score = diversity_score(best->schedule, classes);
  for (const auto& ws : schedules) {
    const int score = diversity_score(ws.schedule, classes);
    if (score > best_score ||
        (score == best_score &&
         to_string(ws.schedule) < to_string(best->schedule))) {
      best = &ws;
      best_score = score;
    }
  }
  return *best;
}

std::optional<std::map<char, core::ApplicationClass>> classes_from_database(
    const core::ApplicationDatabase& db,
    const std::map<char, std::string>& code_to_app,
    const std::string& config) {
  std::map<char, core::ApplicationClass> out;
  for (const auto& [code, app] : code_to_app) {
    const auto cls = db.typical_class(app, config);
    if (!cls) return std::nullopt;
    out[code] = *cls;
  }
  return out;
}

}  // namespace appclass::sched
