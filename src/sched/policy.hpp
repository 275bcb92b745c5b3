// The class-aware scheduling policy (the paper's proposal). The random
// baseline it beats by 22.11% is the multiplicity-weighted average of all
// schedules (sched/experiment.hpp).
//
// The class-aware policy consults learned application classes — from an
// ApplicationDatabase of historical runs or an explicit map — and picks
// the schedule that maximizes class diversity within each machine, so jobs
// sharing a VM stress different resources.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/appdb.hpp"
#include "sched/jobmix.hpp"

namespace appclass::sched {

/// Picks the schedule with the highest class-diversity score; ties break
/// toward the lexicographically smallest rendering (deterministic).
/// `classes` maps job codes to their learned classes.
const WeightedSchedule& pick_class_aware(
    const std::vector<WeightedSchedule>& schedules,
    const std::map<char, core::ApplicationClass>& classes);

/// Builds the code -> class map by looking each job's application name up
/// in the database (the learned-over-historical-runs path). Returns
/// nullopt if any application has no recorded runs under `config`.
std::optional<std::map<char, core::ApplicationClass>> classes_from_database(
    const core::ApplicationDatabase& db,
    const std::map<char, std::string>& code_to_app, const std::string& config);

}  // namespace appclass::sched
