// End-to-end scheduler crash/recovery tests (DESIGN.md §11): a crash
// injected at every instrumented cycle phase must recover to a state that
// passes plan validation; a crash that lands between cycles must leave the
// final metrics byte-identical to a no-crash run with the same seed; and
// crash runs themselves must be deterministic.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/rayon/rayon.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace tetrisched {
namespace {

// Wall-clock limits are the only nondeterminism source in a TetriSched run;
// lift them so same-seed runs are comparable.
TetriSchedConfig PinnedConfig() {
  TetriSchedConfig config = TetriSchedConfig::Full();
  config.milp.rel_gap = 0.0;
  config.milp.time_limit_seconds = 1e9;
  return config;
}

// A small mixed SLO/best-effort workload.
WorkloadParams SmallMix() {
  WorkloadParams params;
  params.kind = WorkloadKind::kGsMix;
  params.seed = 11;
  params.num_jobs = 10;
  return params;
}

// One simulated run of `params` with the given scheduler crashes. Every run
// reconstructs the workload, admission agenda, and policy from the same
// seeds, so runs differ only in the crashes injected.
SimMetrics RunOnce(const std::vector<SchedulerCrashEvent>& crashes,
                   SimConfig config = {},
                   const WorkloadParams& params = SmallMix()) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs = GenerateWorkload(cluster, params);
  RayonAdmission rayon(cluster.num_nodes());
  ApplyAdmission(cluster, jobs, &rayon);

  config.scheduler_crashes = crashes;
  config.rayon = &rayon;
  TetriSchedConfig sched_config = PinnedConfig();
  config.policy_factory = [&cluster, sched_config]() {
    return std::make_unique<TetriScheduler>(cluster, sched_config);
  };
  TetriScheduler scheduler(cluster, sched_config);
  Simulator sim(cluster, scheduler, std::move(jobs), config);
  return sim.Run();
}

void ExpectSameOutcomes(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(a.outcomes[i].id));
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].started, b.outcomes[i].started);
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].dropped, b.outcomes[i].dropped);
    EXPECT_EQ(a.outcomes[i].start_time, b.outcomes[i].start_time);
    EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion);
    EXPECT_EQ(a.outcomes[i].placement, b.outcomes[i].placement);
    EXPECT_EQ(a.outcomes[i].preferred, b.outcomes[i].preferred);
    EXPECT_EQ(a.outcomes[i].retries, b.outcomes[i].retries);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

// --- Crash at every instrumented phase ---------------------------------------

TEST(CrashMatrixTest, EveryPhaseRecoversWithZeroViolations) {
  SimMetrics baseline = RunOnce({});
  EXPECT_EQ(baseline.scheduler_crashes, 0);
  EXPECT_EQ(baseline.validator_violations, 0);
  ASSERT_GT(baseline.makespan, 0);

  for (int phase = 0; phase < kNumCrashPhases; ++phase) {
    SCOPED_TRACE(ToString(static_cast<CrashPhase>(phase)));
    SimMetrics metrics =
        RunOnce({{/*at=*/10, static_cast<CrashPhase>(phase)}});
    EXPECT_EQ(metrics.scheduler_crashes, 1);
    EXPECT_EQ(metrics.recoveries, 1);
    // Recovery re-validates the recovered schedule against cluster ground
    // truth: any violation means replay or reconciliation lost state.
    EXPECT_EQ(metrics.validator_violations, baseline.validator_violations);
    EXPECT_EQ(metrics.recovery_mismatches, 0);
    EXPECT_GT(metrics.makespan, 0);
    // Every job still reaches a terminal state.
    for (const JobOutcome& outcome : metrics.outcomes) {
      EXPECT_TRUE(outcome.completed || outcome.dropped)
          << "job " << outcome.id;
    }
  }
}

TEST(CrashMatrixTest, BetweenCycleCrashMatchesNoCrashRun) {
  SimMetrics baseline = RunOnce({});
  // kBeforeCycle recovers before the cycle runs; kAfterCommit crashes after
  // the cycle's effects are fully journaled. In both cases the recovered
  // scheduler must replan identically to one that never crashed.
  for (CrashPhase phase :
       {CrashPhase::kBeforeCycle, CrashPhase::kAfterCommit}) {
    SCOPED_TRACE(ToString(phase));
    SimMetrics crashed = RunOnce({{/*at=*/10, phase}});
    EXPECT_EQ(crashed.recoveries, 1);
    ExpectSameOutcomes(baseline, crashed);
  }
}

TEST(CrashMatrixTest, BetweenCycleCrashMatchesNoCrashRunLearningEstimates) {
  // With learn_estimates, completions train the runtime estimator and
  // recovery retrains it from the journaled completion stream. The submitted
  // estimates are off by 100%, so the learned ones steer later plans; a
  // crash once half the jobs have completed must leave every later decision
  // as in a run that never crashed.
  WorkloadParams params = SmallMix();
  params.num_jobs = 20;
  params.estimate_error = 1.0;
  SimConfig config;
  config.learn_estimates = true;
  SimMetrics baseline = RunOnce({}, config, params);
  std::vector<SimTime> completions;
  for (const JobOutcome& outcome : baseline.outcomes) {
    if (outcome.completed) {
      completions.push_back(outcome.completion);
    }
  }
  ASSERT_GE(completions.size(), 10u);
  std::sort(completions.begin(), completions.end());
  const SimTime crash_at = completions[completions.size() / 2];
  for (CrashPhase phase :
       {CrashPhase::kBeforeCycle, CrashPhase::kAfterCommit}) {
    SCOPED_TRACE(ToString(phase));
    SimMetrics crashed = RunOnce({{crash_at, phase}}, config, params);
    EXPECT_EQ(crashed.recoveries, 1);
    ExpectSameOutcomes(baseline, crashed);
  }
}

TEST(CrashMatrixTest, DoubleCrashRecoversTwice) {
  SimMetrics metrics =
      RunOnce({{/*at=*/6, CrashPhase::kSolve},
               {/*at=*/18, CrashPhase::kMidCommit}});
  EXPECT_EQ(metrics.scheduler_crashes, 2);
  EXPECT_EQ(metrics.recoveries, 2);
  EXPECT_EQ(metrics.validator_violations, 0);
  for (const JobOutcome& outcome : metrics.outcomes) {
    EXPECT_TRUE(outcome.completed || outcome.dropped) << "job " << outcome.id;
  }
}

TEST(CrashMatrixTest, CrashRunsAreDeterministic) {
  std::vector<SchedulerCrashEvent> crashes = {
      {10, CrashPhase::kCommitIntent}};
  SimMetrics a = RunOnce(crashes);
  SimMetrics b = RunOnce(crashes);
  EXPECT_EQ(a.scheduler_crashes, 1);
  EXPECT_EQ(a.journal_replayed, b.journal_replayed);
  EXPECT_EQ(a.recovery_adoptions, b.recovery_adoptions);
  ExpectSameOutcomes(a, b);
}

// --- Churn plus scheduler crashes --------------------------------------------

TEST(CrashWithChurnTest, StochasticCrashesUnderNodeChurnRecover) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  WorkloadParams params;
  params.kind = WorkloadKind::kGsMix;
  params.seed = 11;
  params.num_jobs = 12;

  FaultModelParams faults;
  faults.seed = 5;
  faults.horizon = 3000;
  faults.mtbf = 400.0;
  faults.mttr = 30.0;
  faults.scheduler_crash_mtbf = 60.0;  // dense: several crashes in-horizon
  FaultSchedule schedule = GenerateFaultSchedule(cluster, faults);
  ASSERT_FALSE(schedule.scheduler_crashes.empty());

  std::vector<Job> jobs = GenerateWorkload(cluster, params);
  RayonAdmission rayon(cluster.num_nodes());
  ApplyAdmission(cluster, jobs, &rayon);

  SimConfig config;
  config.node_failures = schedule.failures;
  config.stragglers = schedule.stragglers;
  config.scheduler_crashes = schedule.scheduler_crashes;
  config.rayon = &rayon;
  TetriSchedConfig sched_config = PinnedConfig();
  TetriScheduler scheduler(cluster, sched_config);
  Simulator sim(cluster, scheduler, std::move(jobs), config);
  SimMetrics metrics = sim.Run();

  EXPECT_GT(metrics.scheduler_crashes, 0);
  EXPECT_EQ(metrics.recoveries, metrics.scheduler_crashes);
  EXPECT_EQ(metrics.validator_violations, 0);
  EXPECT_GT(metrics.journal_replayed, 0);
  EXPECT_GT(metrics.recovery_ms.count(), 0u);
}

TEST(CrashWithChurnTest, SchedulerCrashScheduleIsSeedStable) {
  Cluster cluster = MakeUniformCluster(4, 4, 0);
  FaultModelParams faults;
  faults.seed = 7;
  faults.horizon = 2000;
  faults.mtbf = 200.0;
  faults.mttr = 40.0;
  FaultSchedule without = GenerateFaultSchedule(cluster, faults);
  faults.scheduler_crash_mtbf = 150.0;
  FaultSchedule with = GenerateFaultSchedule(cluster, faults);
  // Turning crashes on must not perturb the node-churn substreams.
  EXPECT_EQ(without.failures, with.failures);
  EXPECT_EQ(without.stragglers, with.stragglers);
  EXPECT_TRUE(without.scheduler_crashes.empty());
  EXPECT_FALSE(with.scheduler_crashes.empty());
  FaultSchedule again = GenerateFaultSchedule(cluster, faults);
  EXPECT_EQ(with.scheduler_crashes, again.scheduler_crashes);
}

// --- Recovery counters reach the metrics export -------------------------------

TEST(RecoveryMetricsTest, ExportContainsPersistInstruments) {
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("tetri_recovery_metrics_" + std::to_string(::getpid()) + ".json"))
          .string();
  SimConfig config;
  config.metrics_json_path = path;
  SimMetrics metrics = RunOnce({{10, CrashPhase::kExtract}}, config);
  EXPECT_EQ(metrics.recoveries, 1);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  EXPECT_NE(json.find("tetrisched_persist_recoveries_total"),
            std::string::npos);
  EXPECT_NE(json.find("tetrisched_persist_journal_replayed_total"),
            std::string::npos);
  EXPECT_NE(json.find("tetrisched_persist_recovery_ms"), std::string::npos);
  EXPECT_NE(json.find("tetrisched_sim_scheduler_crashes_total"),
            std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tetrisched
