// Tests for the robustness extension: stochastic fault generation, scripted
// failure-list validation, the pre-commit plan validator, the greedy
// fallback rung, and the retry/backoff + reservation re-admission path.

#include <gtest/gtest.h>

#include "src/core/plan_check.h"
#include "src/core/scheduler.h"
#include "src/rayon/rayon.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace tetrisched {
namespace {

Job MakeJob(JobId id, JobType type, int k, SimDuration runtime,
            SimTime deadline, SloClass slo_class, SimTime submit = 0) {
  Job job;
  job.id = id;
  job.type = type;
  job.wants_reservation = slo_class != SloClass::kBestEffort;
  job.k = k;
  job.submit = submit;
  job.actual_runtime = runtime;
  job.slowdown = type == JobType::kUnconstrained ? 1.0 : 2.0;
  job.deadline = deadline;
  job.slo_class = slo_class;
  return job;
}

TetriSchedConfig ExactConfig(TetriSchedConfig base = TetriSchedConfig::Full()) {
  base.milp.rel_gap = 0.0;
  return base;
}

// --- Scripted failure-list validation ---------------------------------------

TEST(NormalizeFailuresTest, DropsInvalidAndOverlappingEntries) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);  // nodes 0..7
  std::vector<NodeFailure> raw = {
      {10, 0, 50},         // valid
      {20, 1, 20},         // recover_at == at
      {25, 2, 5},          // recover_at < at
      {30, 99, 60},        // node out of range
      {30, -1, 60},        // negative node
      {20, 0, 60},         // overlaps node 0's [10, 50) outage
      {50, 0, 90},         // back-to-back with [10, 50): kept
  };
  int dropped = 0;
  std::vector<NodeFailure> kept =
      NormalizeNodeFailures(cluster, raw, /*log_dropped=*/false, &dropped);
  EXPECT_EQ(dropped, 5);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], (NodeFailure{10, 0, 50}));
  EXPECT_EQ(kept[1], (NodeFailure{50, 0, 90}));
}

TEST(NormalizeFailuresTest, SortsBySubmitTime) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<NodeFailure> kept = NormalizeNodeFailures(
      cluster, {{40, 1, 60}, {10, 0, 30}}, /*log_dropped=*/false);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].at, 10);
  EXPECT_EQ(kept[1].at, 40);
}

// --- Stochastic fault generation --------------------------------------------

FaultModelParams ChurnParams() {
  FaultModelParams params;
  params.seed = 7;
  params.horizon = 2000;
  params.mtbf = 200.0;
  params.mttr = 40.0;
  return params;
}

TEST(FaultScheduleTest, SameSeedIsByteIdentical) {
  Cluster cluster = MakeUniformCluster(4, 4, 0);
  FaultModelParams params = ChurnParams();
  params.rack_burst_prob = 0.2;
  params.straggler_prob = 0.3;
  FaultSchedule a = GenerateFaultSchedule(cluster, params);
  FaultSchedule b = GenerateFaultSchedule(cluster, params);
  EXPECT_FALSE(a.failures.empty());
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.stragglers, b.stragglers);
}

TEST(FaultScheduleTest, DifferentSeedsDiffer) {
  Cluster cluster = MakeUniformCluster(4, 4, 0);
  FaultModelParams params = ChurnParams();
  FaultSchedule a = GenerateFaultSchedule(cluster, params);
  params.seed = 8;
  FaultSchedule b = GenerateFaultSchedule(cluster, params);
  EXPECT_NE(a.failures, b.failures);
}

TEST(FaultScheduleTest, ZeroMtbfDisablesChurn) {
  Cluster cluster = MakeUniformCluster(4, 4, 0);
  FaultModelParams params = ChurnParams();
  params.mtbf = 0.0;
  FaultSchedule schedule = GenerateFaultSchedule(cluster, params);
  EXPECT_TRUE(schedule.failures.empty());
  EXPECT_TRUE(schedule.stragglers.empty());
}

TEST(FaultScheduleTest, RackBurstsAreCorrelated) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  FaultModelParams params;
  params.seed = 3;
  params.horizon = 4000;
  params.mtbf = 1500.0;  // sparse churn so bursts stand out
  params.mttr = 30.0;
  params.rack_burst_prob = 1.0;
  params.rack_burst_span = 4;
  FaultSchedule schedule = GenerateFaultSchedule(cluster, params);
  ASSERT_FALSE(schedule.failures.empty());
  // Every burst takes down a whole rack: some instant must see >= 4 distinct
  // nodes (one rack's worth) failing within the burst span.
  bool found_burst = false;
  for (const NodeFailure& seedf : schedule.failures) {
    std::set<NodeId> nodes;
    for (const NodeFailure& other : schedule.failures) {
      if (other.at >= seedf.at && other.at <= seedf.at + params.rack_burst_span) {
        nodes.insert(other.node);
      }
    }
    if (nodes.size() >= 4) {
      found_burst = true;
      break;
    }
  }
  EXPECT_TRUE(found_burst);
}

// --- Plan validator ----------------------------------------------------------

class PlanCheckTest : public ::testing::Test {
 protected:
  PlanCheckTest() : cluster_(MakeUniformCluster(2, 4, 0)) {
    exact_ = MakeJob(1, JobType::kUnconstrained, 2, 40, 600,
                     SloClass::kBestEffort);
    avail_ = MakeJob(2, JobType::kAvailability, 3, 40, 600,
                     SloClass::kBestEffort);
    pending_ = {&exact_, &avail_};
    RunningHold hold;
    hold.job = 99;
    hold.counts[0] = 2;  // partition 0: 2 of 4 nodes busy
    hold.expected_end = 100;
    running_ = {hold};
  }

  Placement Place(JobId job, PartitionId partition, int count) {
    Placement placement;
    placement.job = job;
    placement.counts[partition] = count;
    placement.est_duration = 40;
    return placement;
  }

  Cluster cluster_;
  Job exact_;
  Job avail_;
  std::vector<const Job*> pending_;
  std::vector<RunningHold> running_;
};

TEST_F(PlanCheckTest, AcceptsValidPlan) {
  std::vector<Placement> plan = {Place(1, 0, 2), Place(2, 1, 2)};
  EXPECT_TRUE(ValidatePlan(cluster_, pending_, running_, plan).empty());
}

TEST_F(PlanCheckTest, RejectsUnknownJob) {
  std::vector<Placement> plan = {Place(7, 0, 2)};
  EXPECT_FALSE(ValidatePlan(cluster_, pending_, running_, plan).empty());
}

TEST_F(PlanCheckTest, RejectsDuplicatePlacement) {
  std::vector<Placement> plan = {Place(1, 0, 2), Place(1, 1, 2)};
  EXPECT_FALSE(ValidatePlan(cluster_, pending_, running_, plan).empty());
}

TEST_F(PlanCheckTest, RejectsWrongGangSize) {
  // Exact gang (k=2) placing 1 node; availability gang (k=3) placing 4.
  EXPECT_FALSE(
      ValidatePlan(cluster_, pending_, running_, {Place(1, 0, 1)}).empty());
  EXPECT_FALSE(
      ValidatePlan(cluster_, pending_, running_, {Place(2, 1, 4)}).empty());
  // Partial availability gang is legal.
  EXPECT_TRUE(
      ValidatePlan(cluster_, pending_, running_, {Place(2, 1, 1)}).empty());
}

TEST_F(PlanCheckTest, RejectsOutOfRangePartition) {
  std::vector<Placement> plan = {Place(1, 9, 2)};
  EXPECT_FALSE(ValidatePlan(cluster_, pending_, running_, plan).empty());
}

TEST_F(PlanCheckTest, RejectsOverCommittedPartition) {
  // Partition 0 has 2 free nodes (2 of 4 held); placing 2 + 2 overcommits.
  std::vector<Placement> plan = {Place(1, 0, 2), Place(2, 0, 2)};
  EXPECT_FALSE(ValidatePlan(cluster_, pending_, running_, plan).empty());
}

// --- Greedy fallback (degradation ladder) ------------------------------------

TEST(FallbackTest, ZeroSolverBudgetFallsBackToFirstFit) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  TetriSchedConfig config = ExactConfig();
  config.milp.time_limit_seconds = 0.0;  // solver returns no incumbent
  TetriScheduler scheduler(cluster, config);
  Job job =
      MakeJob(1, JobType::kUnconstrained, 4, 40, 600, SloClass::kSloAccepted);
  auto decision = scheduler.OnCycle(0, {&job}, {});
  EXPECT_EQ(decision.stats.solve_status, SolveStatus::kNoIncumbent);
  EXPECT_TRUE(decision.stats.used_fallback);
  ASSERT_EQ(decision.start_now.size(), 1u);
  EXPECT_EQ(decision.start_now[0].job, 1);
  EXPECT_EQ(decision.start_now[0].total_nodes(), 4);
}

TEST(FallbackTest, SimulationStillMeetsSlosWithoutSolver) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 4, 40, 400, SloClass::kSloAccepted),
      MakeJob(2, JobType::kUnconstrained, 2, 30, 400, SloClass::kSloAccepted,
              4),
      MakeJob(3, JobType::kUnconstrained, 2, 20, kTimeNever,
              SloClass::kBestEffort, 8),
  };
  TetriSchedConfig config = ExactConfig();
  config.milp.time_limit_seconds = 0.0;
  TetriScheduler scheduler(cluster, config);
  SimConfig sim_config;
  Simulator sim(cluster, scheduler, jobs, sim_config);
  SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.fallback_cycles, 0);
  EXPECT_EQ(metrics.validator_violations, 0);
  EXPECT_GT(metrics.TotalSloAttainment(), 0.0);
  for (const JobOutcome& outcome : metrics.outcomes) {
    EXPECT_TRUE(outcome.completed) << "job " << outcome.id;
  }
}

TEST(FallbackTest, FirstFitRespectsRunningHolds) {
  // With the whole of partition 0 held, the fallback must place on rack 1.
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  TetriSchedConfig config = ExactConfig();
  config.milp.time_limit_seconds = 0.0;
  TetriScheduler scheduler(cluster, config);
  Job job =
      MakeJob(1, JobType::kUnconstrained, 4, 40, 600, SloClass::kBestEffort);
  RunningHold hold;
  hold.job = 50;
  hold.counts[0] = 4;
  hold.expected_end = 500;
  auto decision = scheduler.OnCycle(0, {&job}, {hold});
  ASSERT_EQ(decision.start_now.size(), 1u);
  EXPECT_EQ(decision.start_now[0].counts.count(0), 0u);
  EXPECT_EQ(decision.start_now[0].counts.at(1), 4);
}

// --- Straggler (fail-slow) injection -----------------------------------------

TEST(StragglerTest, ActiveStragglerStretchesGangRuntime) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 8, 40, kTimeNever,
                                SloClass::kBestEffort)};
  SimConfig config;
  config.stragglers = {{0, 0, 1000, 3.0}};  // node 0 runs 3x slow
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  ASSERT_TRUE(metrics.outcomes[0].completed);
  EXPECT_EQ(metrics.straggler_slowed_starts, 1);
  EXPECT_EQ(metrics.outcomes[0].completion,
            metrics.outcomes[0].start_time + 120);
}

TEST(StragglerTest, ExpiredStragglerHasNoEffect) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 8, 40, kTimeNever,
                                SloClass::kBestEffort, /*submit=*/20)};
  SimConfig config;
  config.stragglers = {{0, 0, 10, 3.0}};  // over before the job starts
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  ASSERT_TRUE(metrics.outcomes[0].completed);
  EXPECT_EQ(metrics.straggler_slowed_starts, 0);
  EXPECT_EQ(metrics.outcomes[0].completion,
            metrics.outcomes[0].start_time + 40);
}

// --- Retry / backoff ---------------------------------------------------------

TEST(RetryTest, ExhaustedRetriesDropTheJob) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 8, 100, kTimeNever,
                                SloClass::kBestEffort)};
  SimConfig config;
  config.max_retries = 1;
  config.retry_backoff = 0;
  config.node_failures = {{10, 0, 12}, {30, 0, 32}};
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.failure_kills, 2);
  EXPECT_EQ(metrics.retries_exhausted, 1);
  EXPECT_TRUE(metrics.outcomes[0].dropped);
  EXPECT_FALSE(metrics.outcomes[0].completed);
  EXPECT_EQ(metrics.outcomes[0].retries, 2);
}

TEST(RetryTest, BackoffDelaysRestart) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 8, 100, kTimeNever,
                                SloClass::kBestEffort)};
  SimConfig config;
  config.retry_backoff = 16;
  config.retry_backoff_cap = 64;
  config.node_failures = {{10, 0, 12}};
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  ASSERT_TRUE(metrics.outcomes[0].completed);
  // Killed at 10, eligible again at 26, restarted at the next cycle.
  EXPECT_GE(metrics.outcomes[0].completion, 126);
  EXPECT_EQ(metrics.recovery_latency.count(), 1);
  EXPECT_GE(metrics.outcomes[0].recovery_latency, 16);
}

// --- Reservation re-admission ------------------------------------------------

TEST(ReadmissionTest, KilledReservationIsReplacedWhenWindowFits) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 8, 40, 400, SloClass::kSloAccepted)};
  RayonAdmission rayon(cluster.num_nodes());
  ASSERT_EQ(ApplyAdmission(cluster, jobs, &rayon), 1);
  SimConfig config;
  config.rayon = &rayon;
  config.node_failures = {{10, 0, 12}};
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.readmissions, 1);
  EXPECT_EQ(metrics.reservations_dropped, 0);
  EXPECT_EQ(metrics.outcomes[0].readmissions, 1);
  EXPECT_TRUE(metrics.outcomes[0].MetDeadline());
}

TEST(ReadmissionTest, UnfittableWindowDropsReservation) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 8, 40, 45, SloClass::kSloAccepted)};
  RayonAdmission rayon(cluster.num_nodes());
  ASSERT_EQ(ApplyAdmission(cluster, jobs, &rayon), 1);
  SimConfig config;
  config.rayon = &rayon;
  // After the kill the remaining window can no longer hold the runtime.
  config.node_failures = {{10, 0, 12}};
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.readmissions, 0);
  EXPECT_EQ(metrics.reservations_dropped, 1);
  EXPECT_TRUE(metrics.outcomes[0].reservation_dropped);
  EXPECT_FALSE(metrics.outcomes[0].MetDeadline());
}

// --- End-to-end determinism under churn --------------------------------------

TEST(ChurnDeterminismTest, SameSeedSameMetrics) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  WorkloadParams params;
  params.kind = WorkloadKind::kGsMix;
  params.seed = 11;
  params.num_jobs = 16;
  FaultModelParams faults;
  faults.seed = 5;
  faults.horizon = 3000;
  faults.mtbf = 300.0;
  faults.mttr = 30.0;
  faults.rack_burst_prob = 0.2;
  faults.straggler_prob = 0.2;

  auto run_once = [&]() {
    std::vector<Job> jobs = GenerateWorkload(cluster, params);
    ApplyAdmission(cluster, jobs);
    FaultSchedule schedule = GenerateFaultSchedule(cluster, faults);
    SimConfig config;
    config.node_failures = schedule.failures;
    config.stragglers = schedule.stragglers;
    // Wall-clock limits are the only nondeterminism source; lift them.
    TetriSchedConfig sched_config = ExactConfig();
    sched_config.milp.time_limit_seconds = 1e9;
    TetriScheduler scheduler(cluster, sched_config);
    Simulator sim(cluster, scheduler, jobs, config);
    return sim.Run();
  };

  SimMetrics a = run_once();
  SimMetrics b = run_once();
  EXPECT_EQ(a.validator_violations, 0);
  EXPECT_EQ(b.validator_violations, 0);
  EXPECT_EQ(a.failure_kills, b.failure_kills);
  EXPECT_EQ(a.fallback_cycles, b.fallback_cycles);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion);
    EXPECT_EQ(a.outcomes[i].retries, b.outcomes[i].retries);
  }
}

}  // namespace
}  // namespace tetrisched
