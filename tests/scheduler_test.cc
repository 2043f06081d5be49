// Tests for the TetriSched scheduler core: cycle decisions, plan-ahead
// deferral, global vs greedy, drops, and capacity safety.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/core/scheduler.h"
#include "src/obs/provenance.h"

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
  job.slowdown = type == JobType::kUnconstrained ? 1.0 : 1.5;
  job.deadline = deadline;
  job.slo_class = slo_class;
  return job;
}

TetriSchedConfig FastConfig(TetriSchedConfig base) {
  base.milp.rel_gap = 0.0;  // exact, deterministic decisions in tests
  return base;
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : cluster_(MakeUniformCluster(2, 4, 1)) {}

  Cluster cluster_;
};

TEST_F(SchedulerTest, PlacesSimpleJobNow) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  Job job = MakeJob(1, JobType::kUnconstrained, 3, 60, 600,
                    SloClass::kSloAccepted);
  auto decision = scheduler.OnCycle(0, {&job}, {});
  ASSERT_EQ(decision.start_now.size(), 1u);
  EXPECT_EQ(decision.start_now[0].job, 1);
  EXPECT_EQ(decision.start_now[0].total_nodes(), 3);
  EXPECT_TRUE(decision.drop.empty());
}

TEST_F(SchedulerTest, EmptyQueueIsCheap) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  auto decision = scheduler.OnCycle(0, {}, {});
  EXPECT_TRUE(decision.start_now.empty());
  EXPECT_EQ(decision.stats.milp_vars, 0);
}

TEST_F(SchedulerTest, DropsUnreachableSloJob) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  Job job = MakeJob(1, JobType::kUnconstrained, 3, 100, 50,
                    SloClass::kSloAccepted);
  auto decision = scheduler.OnCycle(0, {&job}, {});
  EXPECT_TRUE(decision.start_now.empty());
  ASSERT_EQ(decision.drop.size(), 1u);
  EXPECT_EQ(decision.drop[0], 1);
}

TEST_F(SchedulerTest, GpuJobLandsOnGpuNodes) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  Job job = MakeJob(1, JobType::kGpu, 2, 60, 600, SloClass::kSloAccepted);
  auto decision = scheduler.OnCycle(0, {&job}, {});
  ASSERT_EQ(decision.start_now.size(), 1u);
  EXPECT_TRUE(decision.start_now[0].preferred_belief);
  for (const auto& [partition, count] : decision.start_now[0].counts) {
    EXPECT_TRUE(cluster_.partition(partition).has_gpu);
  }
}

TEST_F(SchedulerTest, DefersWhenPreferredResourcesBusySoon) {
  // GPU partition busy until t=16; job deadline is lenient so waiting for
  // GPUs beats running slow elsewhere (value: fast completion wins).
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  Job job = MakeJob(1, JobType::kGpu, 4, 60, 1000, SloClass::kSloAccepted);
  job.slowdown = 3.0;  // fallback is very painful
  RunningHold hold;
  hold.job = 99;
  hold.slo_class = SloClass::kBestEffort;
  hold.counts[cluster_.GpuPartitions()[0]] = 4;
  hold.expected_end = 16;
  auto decision = scheduler.OnCycle(0, {&job}, {hold});
  // Nothing starts now: the job waits for its preferred nodes (plan-ahead).
  EXPECT_TRUE(decision.start_now.empty());
  EXPECT_TRUE(decision.drop.empty());
}

TEST_F(SchedulerTest, NoPlanAheadTakesFallbackImmediately) {
  // Same setup as above, but with plan-ahead disabled the scheduler cannot
  // see the GPUs freeing at t=16 and takes the slow fallback now (the
  // alsched-like TetriSched-NP behavior).
  TetriScheduler scheduler(cluster_,
                           FastConfig(TetriSchedConfig::NoPlanAhead()));
  Job job = MakeJob(1, JobType::kGpu, 4, 60, 1000, SloClass::kSloAccepted);
  job.slowdown = 3.0;
  RunningHold hold;
  hold.job = 99;
  hold.slo_class = SloClass::kBestEffort;
  hold.counts[cluster_.GpuPartitions()[0]] = 4;
  hold.expected_end = 16;
  auto decision = scheduler.OnCycle(0, {&job}, {hold});
  ASSERT_EQ(decision.start_now.size(), 1u);
  EXPECT_FALSE(decision.start_now[0].preferred_belief);
}

TEST_F(SchedulerTest, GlobalBeatsGreedyOnFig4Instance) {
  // The §5.1 instance: 3 machines; urgent 2-gang (deadline 10), long 1-gang
  // (deadline 40), wide 3-gang (deadline 20). Global scheduling meets all
  // three; greedy (NG) in FIFO order schedules jobs 1 and 2 immediately and
  // the 3-gang misses its deadline.
  Cluster cluster = MakeUniformCluster(1, 3, 0);
  std::vector<Job> jobs;
  jobs.push_back(MakeJob(1, JobType::kUnconstrained, 2, 10, 10,
                         SloClass::kSloAccepted));
  jobs.push_back(MakeJob(2, JobType::kUnconstrained, 1, 20, 40,
                         SloClass::kSloAccepted));
  jobs.push_back(MakeJob(3, JobType::kUnconstrained, 3, 10, 20,
                         SloClass::kSloAccepted));
  std::vector<const Job*> pending{&jobs[0], &jobs[1], &jobs[2]};

  TetriSchedConfig config = FastConfig(TetriSchedConfig::Full(40));
  config.quantum = 10;
  TetriScheduler global(cluster, config);
  auto global_decision = global.OnCycle(0, pending, {});
  // Globally only job 1 starts now (jobs 2, 3 deferred to meet all
  // deadlines).
  ASSERT_EQ(global_decision.start_now.size(), 1u);
  EXPECT_EQ(global_decision.start_now[0].job, 1);

  TetriSchedConfig greedy_config = FastConfig(TetriSchedConfig::NoGlobal(40));
  greedy_config.quantum = 10;
  TetriScheduler greedy(cluster, greedy_config);
  auto greedy_decision = greedy.OnCycle(0, pending, {});
  // Greedy starts jobs 1 and 2 now, which makes job 3's deadline
  // unreachable.
  EXPECT_EQ(greedy_decision.start_now.size(), 2u);
}

TEST_F(SchedulerTest, NeverOversubscribesCapacity) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  std::vector<Job> jobs;
  std::vector<const Job*> pending;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i, JobType::kUnconstrained, 3, 50, 2000,
                           SloClass::kBestEffort));
  }
  for (const Job& job : jobs) {
    pending.push_back(&job);
  }
  auto decision = scheduler.OnCycle(0, pending, {});
  int total = 0;
  for (const Placement& placement : decision.start_now) {
    total += placement.total_nodes();
  }
  EXPECT_LE(total, cluster_.num_nodes());
  EXPECT_GE(total, 6);  // at least two 3-gangs fit on 8 nodes
}

TEST_F(SchedulerTest, RespectsRunningHolds) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  // All 8 nodes held until t=100.
  std::vector<RunningHold> holds;
  for (PartitionId p = 0; p < cluster_.num_partitions(); ++p) {
    RunningHold hold;
    hold.job = 100 + p;
    hold.counts[p] = cluster_.partition(p).capacity();
    hold.expected_end = 100;
    holds.push_back(hold);
  }
  Job job = MakeJob(1, JobType::kUnconstrained, 2, 30, 10000,
                    SloClass::kBestEffort);
  auto decision = scheduler.OnCycle(0, {&job}, holds);
  EXPECT_TRUE(decision.start_now.empty());
}

TEST_F(SchedulerTest, HigherValueJobWinsContention) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  // Cluster-filling gangs: only one can run now.
  Job slo = MakeJob(1, JobType::kUnconstrained, 8, 50, 60,
                    SloClass::kSloAccepted);
  Job be = MakeJob(2, JobType::kUnconstrained, 8, 50, kTimeNever,
                   SloClass::kBestEffort);
  auto decision = scheduler.OnCycle(0, {&be, &slo}, {});
  ASSERT_GE(decision.start_now.size(), 1u);
  EXPECT_EQ(decision.start_now[0].job, 1);  // the SLO job wins
}

TEST_F(SchedulerTest, GreedyPrioritizesAcceptedSlo) {
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::NoGlobal()));
  Job be = MakeJob(1, JobType::kUnconstrained, 8, 50, kTimeNever,
                   SloClass::kBestEffort, /*submit=*/0);
  Job slo = MakeJob(2, JobType::kUnconstrained, 8, 50, 60,
                    SloClass::kSloAccepted, /*submit=*/5);
  // BE arrived first, but the accepted SLO queue has priority.
  auto decision = scheduler.OnCycle(10, {&be, &slo}, {});
  ASSERT_EQ(decision.start_now.size(), 1u);
  EXPECT_EQ(decision.start_now[0].job, 2);
}

TEST_F(SchedulerTest, NamesReflectConfiguration) {
  EXPECT_STREQ(TetriScheduler(cluster_, TetriSchedConfig::Full()).name(),
               "TetriSched");
  EXPECT_STREQ(
      TetriScheduler(cluster_, TetriSchedConfig::NoHeterogeneity()).name(),
      "TetriSched-NH");
  EXPECT_STREQ(TetriScheduler(cluster_, TetriSchedConfig::NoGlobal()).name(),
               "TetriSched-NG");
  EXPECT_STREQ(TetriScheduler(cluster_, TetriSchedConfig::NoPlanAhead()).name(),
               "TetriSched-NP");
}

TEST_F(SchedulerTest, AdaptiveReplanningPicksUpFreedCapacity) {
  // Cycle 1: GPUs busy, job defers. Cycle 2: the hold is gone earlier than
  // promised — replanning must start the job immediately on GPUs.
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::Full()));
  Job job = MakeJob(1, JobType::kGpu, 4, 60, 1000, SloClass::kSloAccepted);
  job.slowdown = 3.0;
  RunningHold hold;
  hold.job = 99;
  hold.counts[cluster_.GpuPartitions()[0]] = 4;
  hold.expected_end = 40;
  EXPECT_TRUE(scheduler.OnCycle(0, {&job}, {hold}).start_now.empty());

  auto decision = scheduler.OnCycle(4, {&job}, {});  // hold vanished early
  ASSERT_EQ(decision.start_now.size(), 1u);
  EXPECT_TRUE(decision.start_now[0].preferred_belief);
}

// TetriSched-NG on a cluster held past the plan-ahead window: every option
// of every job would be culled by the compiler, so no model is compiled and
// no MILP is solved, nothing is placed, and each job gets one
// no-feasible-option rejection.
TEST_F(SchedulerTest, GreedySkipsSolveWhenEveryOptionIsCulled) {
  std::vector<RunningHold> holds;
  for (PartitionId p = 0; p < cluster_.num_partitions(); ++p) {
    RunningHold hold;
    hold.job = 100 + p;
    hold.counts[p] = cluster_.partition(p).capacity();
    hold.expected_end = 10000;
    holds.push_back(hold);
  }
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 2, 30, kTimeNever,
              SloClass::kBestEffort),
      MakeJob(2, JobType::kGpu, 4, 60, 5000, SloClass::kSloAccepted),
      MakeJob(3, JobType::kUnconstrained, 1, 20, 8000,
              SloClass::kSloUnreserved),
  };
  std::vector<const Job*> pending;
  for (const Job& job : jobs) {
    pending.push_back(&job);
  }
  Counter* solves = GlobalMetrics().GetCounter("tetrisched_solver_solves_total");
  const int64_t solves_before = solves->value();
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  recorder.Enable();
  TetriScheduler scheduler(cluster_, FastConfig(TetriSchedConfig::NoGlobal()));
  auto decision = scheduler.OnCycle(0, pending, holds);
  std::vector<ProvenanceRecord> records = recorder.Snapshot();
  recorder.Disable();

  EXPECT_TRUE(decision.start_now.empty());
  EXPECT_TRUE(decision.drop.empty());
  EXPECT_FALSE(decision.stats.used_fallback);
  EXPECT_EQ(decision.stats.milp_nodes, 0);
  EXPECT_EQ(decision.stats.milp_vars, 0);  // nothing was compiled
  EXPECT_EQ(decision.stats.milp_constraints, 0);
  EXPECT_EQ(solves->value(), solves_before);
  std::map<int64_t, int> rejections;
  for (const ProvenanceRecord& record : records) {
    if (record.kind == ProvKind::kRejected) {
      EXPECT_EQ(record.label, "no-feasible-option");
      ++rejections[record.job];
    }
  }
  EXPECT_EQ(rejections, (std::map<int64_t, int>{{1, 1}, {2, 1}, {3, 1}}));

  // A zero time limit asks the solver for its no-incumbent report, so the
  // jobs are still compiled and solved, and the cycle takes the first-fit
  // rung.
  TetriSchedConfig starved_config = FastConfig(TetriSchedConfig::NoGlobal());
  starved_config.milp.time_limit_seconds = 0.0;
  TetriScheduler starved(cluster_, starved_config);
  auto starved_decision = starved.OnCycle(0, pending, holds);
  EXPECT_GT(starved_decision.stats.milp_vars, 0);
  EXPECT_GT(starved_decision.stats.milp_constraints, 0);
  EXPECT_EQ(starved_decision.stats.solve_status, SolveStatus::kNoIncumbent);
  EXPECT_TRUE(starved_decision.stats.used_fallback);
  EXPECT_TRUE(starved_decision.start_now.empty());
}

}  // namespace
}  // namespace tetrisched
