#include "sched/experiment.hpp"

#include <gtest/gtest.h>

#include "sched/policy.hpp"

namespace appclass::sched {
namespace {

std::map<char, core::ApplicationClass> paper_classes() {
  std::map<char, core::ApplicationClass> out;
  for (const auto& t : paper_job_types()) out[t.code] = t.expected_class;
  return out;
}

TEST(Experiment, PaperJobTypesAreSPN) {
  const auto types = paper_job_types();
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0].code, 'S');
  EXPECT_EQ(types[0].expected_class, core::ApplicationClass::kCpu);
  EXPECT_EQ(types[1].code, 'P');
  EXPECT_EQ(types[2].code, 'N');
  for (const auto& t : types) EXPECT_NE(t.factory(0), nullptr);
}

TEST(Experiment, RunScheduleProducesNineOutcomes) {
  const auto types = paper_job_types();
  const Schedule spn = canonicalize({"SPN", "SPN", "SPN"});
  const auto outcome = run_schedule(spn, types, 7);
  EXPECT_EQ(outcome.jobs.size(), 9u);
  for (const auto& j : outcome.jobs) {
    EXPECT_GT(j.elapsed_seconds, 0);
    EXPECT_LT(j.vm_index, 3u);
    EXPECT_LE(j.elapsed_seconds, outcome.makespan_seconds);
  }
}

TEST(Experiment, ThroughputFormulas) {
  ScheduleOutcome o;
  o.jobs = {{'S', 0, 86400}, {'S', 1, 43200}, {'P', 0, 86400}};
  EXPECT_DOUBLE_EQ(o.system_throughput_jobs_per_day(), 1.0 + 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(o.app_throughput_jobs_per_day('S'), 3.0);
  EXPECT_DOUBLE_EQ(o.app_throughput_jobs_per_day('P'), 1.0);
  EXPECT_DOUBLE_EQ(o.app_throughput_jobs_per_day('N'), 0.0);
}

TEST(Experiment, ClassAwareScheduleBeatsUniform) {
  // The headline effect: mixing classes on each VM beats segregating them.
  const auto types = paper_job_types();
  const auto spn = run_schedule(canonicalize({"SPN", "SPN", "SPN"}), types, 3);
  const auto uniform =
      run_schedule(canonicalize({"SSS", "PPP", "NNN"}), types, 3);
  EXPECT_GT(spn.system_throughput_jobs_per_day(),
            1.2 * uniform.system_throughput_jobs_per_day());
}

TEST(Experiment, WeightedAverageIsBetweenMinAndMax) {
  const auto types = paper_job_types();
  const auto schedules =
      enumerate_schedules({{'S', 1}, {'P', 1}, {'N', 1}}, 3, 1);
  const auto outcomes = run_all_schedules(schedules, types, 5);
  const double avg = weighted_average_throughput(schedules, outcomes);
  double mn = 1e18, mx = 0;
  for (const auto& o : outcomes) {
    mn = std::min(mn, o.system_throughput_jobs_per_day());
    mx = std::max(mx, o.system_throughput_jobs_per_day());
  }
  EXPECT_GE(avg, mn - 1e-9);
  EXPECT_LE(avg, mx + 1e-9);
}

TEST(Experiment, ConcurrentBeatsSequentialForMixedClasses) {
  const auto out = run_concurrent_vs_sequential(11);
  // Paper Table 4: concurrent finishes both jobs sooner than back-to-back.
  EXPECT_LT(out.concurrent_makespan_s, out.sequential_makespan_s);
  // Each job runs no faster co-scheduled than alone.
  EXPECT_GE(out.concurrent_ch3d_s, out.sequential_ch3d_s);
  EXPECT_GE(out.concurrent_postmark_s, out.sequential_postmark_s - 5);
}

TEST(Policy, ClassAwarePicksSPN) {
  const auto schedules = enumerate_schedules({{'S', 3}, {'P', 3}, {'N', 3}},
                                             3, 3);
  const auto& pick = pick_class_aware(schedules, paper_classes());
  EXPECT_EQ(to_string(pick.schedule), "{(NPS),(NPS),(NPS)}");
}

TEST(Policy, ClassesFromDatabase) {
  core::ApplicationDatabase db;
  auto add = [&](const char* app, core::ApplicationClass cls) {
    core::RunRecord r;
    r.application = app;
    r.config = "vm-256MB";
    r.application_class = cls;
    std::array<double, core::kClassCount> fr{};
    fr[core::index_of(cls)] = 1.0;
    r.composition = core::ClassComposition::from_fractions(fr, 10);
    r.elapsed_seconds = 100;
    db.record(r);
  };
  add("specseis_small", core::ApplicationClass::kCpu);
  add("postmark", core::ApplicationClass::kIo);
  const std::map<char, std::string> code_to_app = {
      {'S', "specseis_small"}, {'P', "postmark"}, {'N', "netpipe"}};
  // netpipe has no history yet -> nullopt.
  EXPECT_FALSE(classes_from_database(db, code_to_app, "vm-256MB").has_value());
  add("netpipe", core::ApplicationClass::kNetwork);
  const auto classes = classes_from_database(db, code_to_app, "vm-256MB");
  ASSERT_TRUE(classes.has_value());
  EXPECT_EQ(classes->at('S'), core::ApplicationClass::kCpu);
  EXPECT_EQ(classes->at('N'), core::ApplicationClass::kNetwork);
}

TEST(Policy, ClassAwareTieBreaksDeterministically) {
  // All jobs the same class: every schedule scores 3; the lexicographically
  // smallest rendering must be returned, and stably so.
  const auto schedules = enumerate_schedules({{'S', 3}, {'P', 3}, {'N', 3}},
                                             3, 3);
  std::map<char, core::ApplicationClass> same;
  same['S'] = same['P'] = same['N'] = core::ApplicationClass::kCpu;
  const auto& a = pick_class_aware(schedules, same);
  const auto& b = pick_class_aware(schedules, same);
  EXPECT_EQ(to_string(a.schedule), to_string(b.schedule));
}

}  // namespace
}  // namespace appclass::sched
