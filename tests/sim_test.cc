// Tests for the discrete-event simulator, admission wiring, and end-to-end
// integration with both scheduler stacks.

#include <gtest/gtest.h>

#include "src/baseline/capacity_scheduler.h"
#include "src/core/scheduler.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace tetrisched {
namespace {

Job MakeJob(JobId id, JobType type, int k, SimDuration runtime,
            SimTime deadline, bool wants_reservation, SimTime submit,
            double slowdown = 1.5) {
  Job job;
  job.id = id;
  job.type = type;
  job.wants_reservation = wants_reservation;
  job.k = k;
  job.submit = submit;
  job.actual_runtime = runtime;
  job.slowdown = type == JobType::kUnconstrained ? 1.0 : slowdown;
  job.deadline = deadline;
  return job;
}

TEST(PlacementQualityTest, GpuMpiAndDataLocalRules) {
  Cluster cluster = MakeUniformCluster(2, 2, 1);
  PartitionId gpu = cluster.GpuPartitions()[0];
  PartitionId other = -1;
  for (const Partition& p : cluster.partitions()) {
    if (!p.has_gpu) {
      other = p.id;
    }
  }
  Job job;
  job.type = JobType::kGpu;
  EXPECT_TRUE(IsPreferredPlacement(cluster, job, {{gpu, 2}}));
  EXPECT_FALSE(IsPreferredPlacement(cluster, job, {{gpu, 1}, {other, 1}}));
  job.type = JobType::kMpi;
  EXPECT_TRUE(IsPreferredPlacement(cluster, job, {{gpu, 2}}));
  EXPECT_FALSE(IsPreferredPlacement(cluster, job, {{gpu, 1}, {other, 1}}));
  job.type = JobType::kUnconstrained;
  EXPECT_TRUE(IsPreferredPlacement(cluster, job, {{gpu, 1}, {other, 1}}));
  job.type = JobType::kDataLocal;
  job.preferred_partitions = {other};
  EXPECT_TRUE(IsPreferredPlacement(cluster, job, {{other, 2}}));
  EXPECT_FALSE(IsPreferredPlacement(cluster, job, {{gpu, 1}, {other, 1}}));
}

TEST(AdmissionTest, SplitsSloClasses) {
  Cluster cluster = MakeUniformCluster(1, 4, 0);
  std::vector<Job> jobs;
  // Two 4-node jobs with tight overlapping windows: only one fits the plan.
  jobs.push_back(MakeJob(1, JobType::kUnconstrained, 4, 100, 110, true, 0));
  jobs.push_back(MakeJob(2, JobType::kUnconstrained, 4, 100, 110, true, 0));
  jobs.push_back(MakeJob(3, JobType::kUnconstrained, 1, 10, kTimeNever, false, 0));
  int accepted = ApplyAdmission(cluster, jobs);
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(jobs[0].slo_class, SloClass::kSloAccepted);
  EXPECT_EQ(jobs[0].reservation.start, 0);
  EXPECT_EQ(jobs[1].slo_class, SloClass::kSloUnreserved);
  EXPECT_EQ(jobs[2].slo_class, SloClass::kBestEffort);
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : cluster_(MakeUniformCluster(2, 4, 1)) {}

  TetriSchedConfig ExactConfig() {
    TetriSchedConfig config = TetriSchedConfig::Full();
    config.milp.rel_gap = 0.0;
    return config;
  }

  Cluster cluster_;
};

TEST_F(SimulatorTest, SingleJobRunsToCompletion) {
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 2, 50, 500, true, 0)};
  ApplyAdmission(cluster_, jobs);
  TetriScheduler scheduler(cluster_, ExactConfig());
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  ASSERT_EQ(metrics.outcomes.size(), 1u);
  EXPECT_TRUE(metrics.outcomes[0].completed);
  EXPECT_EQ(metrics.outcomes[0].start_time, 0);
  EXPECT_EQ(metrics.outcomes[0].completion, 50);
  EXPECT_TRUE(metrics.outcomes[0].MetDeadline());
  EXPECT_DOUBLE_EQ(metrics.TotalSloAttainment(), 1.0);
}

TEST_F(SimulatorTest, GpuJobRunsFastOnGpu) {
  std::vector<Job> jobs{MakeJob(1, JobType::kGpu, 2, 40, 1000, true, 0)};
  ApplyAdmission(cluster_, jobs);
  TetriScheduler scheduler(cluster_, ExactConfig());
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  EXPECT_TRUE(metrics.outcomes[0].preferred);
  EXPECT_EQ(metrics.outcomes[0].completion, 40);  // fast runtime
}

TEST_F(SimulatorTest, UnderestimatedJobStillRunsToActualCompletion) {
  // Estimate says 25s, reality is 50s: the scheduler must adapt, and the
  // sim must complete the job at its actual time.
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 2, 50, 500, true, 0)};
  jobs[0].estimate_error = -0.5;
  ApplyAdmission(cluster_, jobs);
  TetriScheduler scheduler(cluster_, ExactConfig());
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.outcomes[0].completion, 50);
}

TEST_F(SimulatorTest, ContendingJobsSerializeWithoutOversubscription) {
  // Three 4-node jobs on 8 nodes: at most two run concurrently.
  std::vector<Job> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(
        MakeJob(i, JobType::kUnconstrained, 4, 60, kTimeNever, false, 0));
  }
  ApplyAdmission(cluster_, jobs);
  TetriScheduler scheduler(cluster_, ExactConfig());
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  int completed = 0;
  for (const JobOutcome& outcome : metrics.outcomes) {
    EXPECT_TRUE(outcome.completed);
    ++completed;
  }
  EXPECT_EQ(completed, 3);
  EXPECT_GT(metrics.makespan, 60);  // they could not all run at once
}

TEST_F(SimulatorTest, DroppedSloJobCountsAsMissed) {
  // Deadline impossible from the start: scheduler drops it.
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 2, 100, 50, true, 0)};
  ApplyAdmission(cluster_, jobs);
  TetriScheduler scheduler(cluster_, ExactConfig());
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  EXPECT_TRUE(metrics.outcomes[0].dropped);
  EXPECT_FALSE(metrics.outcomes[0].MetDeadline());
  EXPECT_DOUBLE_EQ(metrics.TotalSloAttainment(), 0.0);
}

TEST_F(SimulatorTest, UtilizationWithinBounds) {
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i, JobType::kUnconstrained, 2, 40, kTimeNever,
                           false, i * 10));
  }
  ApplyAdmission(cluster_, jobs);
  TetriScheduler scheduler(cluster_, ExactConfig());
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0);
}

TEST_F(SimulatorTest, BestEffortLatencyMeasured) {
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 2, 30, kTimeNever, false, 5)};
  ApplyAdmission(cluster_, jobs);
  TetriScheduler scheduler(cluster_, ExactConfig());
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  // Submitted at 5, starts at the next 4s cycle (8), runs 30 -> latency 33.
  EXPECT_NEAR(metrics.MeanBestEffortLatency(), 33.0, 1e-9);
}

// --- Baseline CapacityScheduler ---------------------------------------------

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : cluster_(MakeUniformCluster(2, 4, 1)) {}
  Cluster cluster_;
};

TEST_F(BaselineTest, RunsSimpleWorkload) {
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 4, 50, 300, true, 0),
      MakeJob(2, JobType::kUnconstrained, 2, 30, kTimeNever, false, 0)};
  ApplyAdmission(cluster_, jobs);
  CapacityScheduler scheduler(cluster_);
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  EXPECT_TRUE(metrics.outcomes[0].completed);
  EXPECT_TRUE(metrics.outcomes[1].completed);
  EXPECT_DOUBLE_EQ(metrics.AcceptedSloAttainment(), 1.0);
}

TEST_F(BaselineTest, PreemptsBestEffortForReservation) {
  // BE job fills the cluster; an accepted SLO job whose reservation starts
  // later must preempt it.
  std::vector<Job> jobs{
      MakeJob(1, JobType::kUnconstrained, 8, 200, kTimeNever, false, 0),
      MakeJob(2, JobType::kUnconstrained, 8, 50, 300, true, 20)};
  ApplyAdmission(cluster_, jobs);
  ASSERT_EQ(jobs[1].slo_class, SloClass::kSloAccepted);
  CapacityScheduler scheduler(cluster_);
  Simulator sim(cluster_, scheduler, jobs);
  SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.preemptions, 0);
  EXPECT_TRUE(metrics.outcomes[1].MetDeadline());
  // The BE job eventually completes after restarting.
  EXPECT_TRUE(metrics.outcomes[0].completed);
}

TEST_F(BaselineTest, HeterogeneityUnawarePlacement) {
  // An MPI job with free nodes spread across racks gets a spread placement
  // (slow), whereas TetriSched would pack it onto one rack.
  std::vector<Job> jobs{
      MakeJob(1, JobType::kMpi, 4, 40, 10000, true, 0, /*slowdown=*/2.0)};
  ApplyAdmission(cluster_, jobs);

  {
    CapacityScheduler cs(cluster_);
    Simulator sim(cluster_, cs, jobs);
    SimMetrics metrics = sim.Run();
    // CS takes nodes in partition order; with 4-node racks the job fits on
    // rack 0 -> actually preferred here. Occupy rack 0 partially instead:
    // simpler check below uses TetriSched vs CS on a contended setup.
    EXPECT_TRUE(metrics.outcomes[0].completed);
  }

  // Contended: fragment the free capacity. A long 3-gang pins most of rack
  // 0; a short 3-gang straddles into rack 1 and finishes, leaving 1 free
  // node on rack 0 and 4 on rack 1 when the MPI job arrives. CS packs nodes
  // in partition order and spreads the gang across racks (slow run);
  // TetriSched's rack-local STRL option picks rack 1 (fast run).
  // Rack-local occupiers pin down one rack each (3 of 4 nodes); the short
  // one finishes before the MPI job arrives, leaving 1 free node on one rack
  // and 4 on the other.
  std::vector<Job> contended{
      MakeJob(10, JobType::kMpi, 3, 300, kTimeNever, false, 0, 2.0),
      MakeJob(12, JobType::kMpi, 3, 20, kTimeNever, false, 0, 2.0),
      MakeJob(11, JobType::kMpi, 4, 40, 10000, true, 24, 2.0)};
  ApplyAdmission(cluster_, contended);

  CapacityScheduler cs(cluster_);
  Simulator cs_sim(cluster_, cs, contended);
  SimMetrics cs_metrics = cs_sim.Run();

  TetriSchedConfig config = TetriSchedConfig::Full();
  config.milp.rel_gap = 0.0;
  TetriScheduler tetri(cluster_, config);
  Simulator tetri_sim(cluster_, tetri, contended);
  SimMetrics tetri_metrics = tetri_sim.Run();

  const JobOutcome* cs_mpi = &cs_metrics.outcomes[2];
  const JobOutcome* tetri_mpi = &tetri_metrics.outcomes[2];
  ASSERT_EQ(cs_mpi->id, 11);
  ASSERT_EQ(tetri_mpi->id, 11);
  EXPECT_FALSE(cs_mpi->preferred);
  EXPECT_TRUE(tetri_mpi->preferred);
  EXPECT_LT(tetri_mpi->completion - tetri_mpi->start_time,
            cs_mpi->completion - cs_mpi->start_time);
}

// --- End-to-end smoke: full workload through both stacks --------------------

TEST(EndToEndTest, TetriSchedBeatsBaselineOnHetMix) {
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  WorkloadParams params;
  params.kind = WorkloadKind::kGsHet;
  params.num_jobs = 30;
  params.seed = 42;
  std::vector<Job> jobs = GenerateWorkload(cluster, params);
  ApplyAdmission(cluster, jobs);

  TetriSchedConfig config = TetriSchedConfig::Full();
  config.milp.time_limit_seconds = 0.2;
  TetriScheduler tetri(cluster, config);
  SimMetrics tetri_metrics = Simulator(cluster, tetri, jobs).Run();

  CapacityScheduler cs(cluster);
  SimMetrics cs_metrics = Simulator(cluster, cs, jobs).Run();

  // Both must finish the workload sanely.
  EXPECT_GT(tetri_metrics.TotalSloAttainment(), 0.3);
  EXPECT_LE(tetri_metrics.utilization, 1.0);
  EXPECT_LE(cs_metrics.utilization, 1.0);
  // The headline claim, qualitatively: TetriSched attains at least as many
  // SLOs on the heterogeneous mix.
  EXPECT_GE(tetri_metrics.TotalSloAttainment(),
            cs_metrics.TotalSloAttainment() - 1e-9);
}

}  // namespace
}  // namespace tetrisched
