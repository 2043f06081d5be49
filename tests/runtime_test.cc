// ClusterRuntime tests (DESIGN.md §17). Every test drives the runtime by
// hand on a virtual clock: no sockets, no threads, no wall-clock polling.
// A scripted policy decision stands in for the scheduler.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/persist/journal.h"
#include "src/persist/persist.h"
#include "src/persist/records.h"
#include "src/rayon/rayon.h"
#include "src/runtime/cluster_runtime.h"

namespace tetrisched {
namespace {

// A policy that plans nothing; Commit only asks it for its durable state.
class NullPolicy : public SchedulerPolicy {
 public:
  Decision OnCycle(SimTime, const std::vector<const Job*>&,
                   const std::vector<RunningHold>&) override {
    return {};
  }
  const char* name() const override { return "null"; }
  std::string ExportDurableState() const override { return "blob"; }
};

Job MakeJob(JobId id, JobType type, int k, SimDuration runtime,
            SimTime submit = 0) {
  Job job;
  job.id = id;
  job.type = type;
  job.k = k;
  job.submit = submit;
  job.actual_runtime = runtime;
  job.slowdown = 2.0;
  return job;
}

Placement Place(JobId job, PartitionId partition, int count,
                SimDuration est_duration, bool preferred_belief = true) {
  Placement placement;
  placement.job = job;
  placement.counts[partition] = count;
  placement.est_duration = est_duration;
  placement.preferred_belief = preferred_belief;
  return placement;
}

// First partition with (or without) GPUs.
PartitionId FindPartition(const Cluster& cluster, bool gpu) {
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    if (cluster.partition(p).has_gpu == gpu) {
      return p;
    }
  }
  return -1;
}

std::unique_ptr<PersistenceManager> MemoryJournal(JournalStorage** storage) {
  auto owned = std::make_unique<MemoryJournalStorage>();
  *storage = owned.get();
  PersistOptions options;
  options.snapshot_every = 0;  // checkpoints only when a test asks
  return std::make_unique<PersistenceManager>(std::move(owned), options);
}

std::vector<DurableEventKind> JournalKinds(const JournalStorage& storage) {
  std::vector<DurableEventKind> kinds;
  for (const std::string& payload :
       DecodeFrames(storage.ReadJournal()).payloads) {
    DurableEvent event;
    EXPECT_TRUE(DecodeEvent(payload, &event));
    kinds.push_back(event.kind);
  }
  return kinds;
}

// A hook that records each commit point with the journal length and the
// running-set size at that instant.
class RecordingHook : public LaunchHook {
 public:
  RecordingHook(const ClusterRuntime& runtime, const JournalStorage& storage)
      : runtime_(runtime), storage_(storage) {}

  struct Point {
    CommitPoint point;
    size_t journal_records;
    size_t running;
  };
  std::vector<Point> points;

  void AtCommitPoint(CommitPoint point) override {
    points.push_back({point, JournalKinds(storage_).size(),
                      runtime_.running().size()});
  }

 private:
  const ClusterRuntime& runtime_;
  const JournalStorage& storage_;
};

TEST(RuntimeTest, CompletesAtActualEndWithTruePlacementQuality) {
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  const PartitionId cpu = FindPartition(cluster, /*gpu=*/false);
  ASSERT_GE(cpu, 0);
  ClusterRuntime runtime(cluster, {});
  NullPolicy policy;
  LaunchHook hook;
  const int i = runtime.AddJob(MakeJob(1, JobType::kGpu, 2, 10));
  runtime.Arrive(i, 0);

  // The scheduler believes the placement is preferred; the GPU job landed
  // on CPU nodes, so it runs slowdown (2x) longer than the belief.
  SchedulerPolicy::Decision decision;
  decision.start_now.push_back(Place(1, cpu, 2, 10, /*preferred_belief=*/true));
  runtime.Commit(0, decision, policy, hook);
  ASSERT_EQ(runtime.state(i), JobState::kRunning);
  EXPECT_EQ(runtime.next_completion(), 20);
  EXPECT_EQ(runtime.running().at(1).expected_end, 10);
  EXPECT_EQ(runtime.ledger().total_free(), cluster.num_nodes() - 2);

  runtime.CompleteUntil(19);
  EXPECT_EQ(runtime.state(i), JobState::kRunning);
  runtime.CompleteUntil(20);
  EXPECT_EQ(runtime.state(i), JobState::kCompleted);
  EXPECT_EQ(runtime.outcome(i).completion, 20);
  EXPECT_EQ(runtime.end_time(i), 20);
  EXPECT_FALSE(runtime.outcome(i).preferred);
  EXPECT_EQ(runtime.ledger().total_free(), cluster.num_nodes());
  EXPECT_EQ(runtime.open_jobs(), 0);
}

TEST(RuntimeTest, CancelsQueuedPendingAndRunningJobs) {
  Cluster cluster = MakeUniformCluster(1, 4);
  ClusterRuntime runtime(cluster, {});
  NullPolicy policy;
  LaunchHook hook;
  const int queued = runtime.AddJob(MakeJob(1, JobType::kUnconstrained, 1, 8));
  const int pending = runtime.AddJob(MakeJob(2, JobType::kUnconstrained, 1, 8));
  const int running = runtime.AddJob(MakeJob(3, JobType::kUnconstrained, 3, 8));
  runtime.Arrive(pending, 0);
  runtime.Arrive(running, 0);
  SchedulerPolicy::Decision decision;
  decision.start_now.push_back(Place(3, 0, 3, 8));
  runtime.Commit(0, decision, policy, hook);
  ASSERT_EQ(runtime.state(running), JobState::kRunning);
  ASSERT_EQ(runtime.ledger().total_free(), 1);

  EXPECT_TRUE(runtime.Cancel(queued, 2));
  EXPECT_TRUE(runtime.Cancel(pending, 3));
  EXPECT_TRUE(runtime.Cancel(running, 4));
  for (int i : {queued, pending, running}) {
    EXPECT_EQ(runtime.state(i), JobState::kCancelled);
  }
  EXPECT_EQ(runtime.end_time(running), 4);
  EXPECT_EQ(runtime.count(JobState::kCancelled), 3);
  EXPECT_TRUE(runtime.running().empty());
  EXPECT_EQ(runtime.ledger().total_free(), 4);  // the running gang's nodes

  // A finished job cannot be cancelled again, and the cancelled gang's
  // completion never fires.
  EXPECT_FALSE(runtime.Cancel(running, 5));
  runtime.CompleteUntil(100);
  EXPECT_EQ(runtime.count(JobState::kCompleted), 0);

  std::vector<const Job*> view;
  std::vector<RunningHold> holds;
  runtime.BuildView(6, &view, &holds);
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(holds.empty());
}

TEST(RuntimeTest, CommitJournalsIntentMutationsThenApplied) {
  Cluster cluster = MakeUniformCluster(1, 4);
  JournalStorage* storage = nullptr;
  std::unique_ptr<PersistenceManager> persist = MemoryJournal(&storage);
  ClusterRuntime runtime(cluster, {.persist = persist.get()});
  NullPolicy policy;
  RecordingHook hook(runtime, *storage);
  for (JobId id : {1, 2, 3}) {
    runtime.Arrive(runtime.AddJob(MakeJob(id, JobType::kUnconstrained, 1, 8)),
                   0);
  }
  SchedulerPolicy::Decision decision;
  decision.drop = {3};
  decision.start_now = {Place(1, 0, 1, 8), Place(2, 0, 1, 8)};
  runtime.Commit(0, decision, policy, hook);

  EXPECT_EQ(JournalKinds(*storage),
            (std::vector<DurableEventKind>{
                DurableEventKind::kCommitIntent, DurableEventKind::kJobDropped,
                DurableEventKind::kGangLaunch, DurableEventKind::kGangLaunch,
                DurableEventKind::kCommitApplied}));
  // The mid-commit point falls after the first gang reached the cluster
  // and before its kGangLaunch record.
  ASSERT_EQ(hook.points.size(), 3u);
  EXPECT_EQ(hook.points[0].point, CommitPoint::kIntent);
  EXPECT_EQ(hook.points[0].journal_records, 1u);
  EXPECT_EQ(hook.points[1].point, CommitPoint::kMidCommit);
  EXPECT_EQ(hook.points[1].journal_records, 2u);
  EXPECT_EQ(hook.points[1].running, 1u);
  EXPECT_EQ(hook.points[2].point, CommitPoint::kApplied);
  EXPECT_EQ(hook.points[2].journal_records, 5u);

  // The shadow image is what replaying the journal rebuilds.
  EXPECT_EQ(runtime.image(), persist->Recover().state);
  EXPECT_EQ(runtime.image().policy_state, "blob");
}

TEST(RuntimeTest, PlacementOverFreeCapacityIsRefusedAndCounted) {
  Cluster cluster = MakeUniformCluster(1, 4);
  ClusterRuntime runtime(cluster, {});
  NullPolicy policy;
  LaunchHook hook;
  const int big = runtime.AddJob(MakeJob(1, JobType::kUnconstrained, 3, 8));
  const int other = runtime.AddJob(MakeJob(2, JobType::kUnconstrained, 3, 8));
  runtime.Arrive(big, 0);
  runtime.Arrive(other, 0);
  SchedulerPolicy::Decision decision;
  decision.start_now = {Place(1, 0, 3, 8), Place(2, 0, 3, 8)};
  runtime.Commit(0, decision, policy, hook);

  EXPECT_EQ(runtime.state(big), JobState::kRunning);
  EXPECT_EQ(runtime.state(other), JobState::kPending);
  EXPECT_EQ(runtime.counters().validator_violations, 1);
  EXPECT_EQ(runtime.ledger().total_free(), 1);

  // Malformed placements are refused the same way.
  decision.start_now = {Place(2, 7, 1, 8), Place(9, 0, 1, 8),
                        Place(1, 0, 1, 8)};
  runtime.Commit(4, decision, policy, hook);
  EXPECT_EQ(runtime.counters().validator_violations, 4);
  EXPECT_EQ(runtime.ledger().total_free(), 1);
}

// A fake launch hook decides the outcome: a bounced plan leaves the job
// pending without charging the validator.
TEST(RuntimeTest, BouncedLaunchLeavesTheJobPending) {
  class BouncingHook : public LaunchHook {
   public:
    Verdict Acquire(SimTime, const Placement&, NodeLedger&,
                    std::vector<NodeId>*, const char** why) override {
      *why = "test";
      return Verdict::kBounced;
    }
  };
  Cluster cluster = MakeUniformCluster(1, 4);
  ClusterRuntime runtime(cluster, {});
  NullPolicy policy;
  BouncingHook hook;
  const int i = runtime.AddJob(MakeJob(1, JobType::kUnconstrained, 1, 8));
  runtime.Arrive(i, 0);
  SchedulerPolicy::Decision decision;
  decision.start_now = {Place(1, 0, 1, 8)};
  runtime.Commit(0, decision, policy, hook);
  EXPECT_EQ(runtime.state(i), JobState::kPending);
  EXPECT_EQ(runtime.counters().stale_placement_bounces, 1);
  EXPECT_EQ(runtime.counters().validator_violations, 0);
  EXPECT_EQ(runtime.ledger().total_free(), 4);
}

// Jobs queued, pending and running at a checkpoint, plus jobs that reached
// those states only in the journal after it, all come back in a restarted
// runtime: a new process with an empty running set on the same storage.
TEST(RuntimeTest, CheckpointAndReplayResumeQueuedPendingAndRunningJobs) {
  Cluster cluster = MakeUniformCluster(1, 12);
  JournalStorage* storage = nullptr;
  std::unique_ptr<PersistenceManager> persist = MemoryJournal(&storage);
  RayonAdmission rayon(cluster.num_nodes());
  NullPolicy policy;
  LaunchHook hook;
  {
    ClusterRuntime runtime(cluster,
                           {.rayon = &rayon, .persist = persist.get()});
    // What tetrischedd does when it acknowledges a submission.
    auto enqueue = [&](JobId id, SimTime now, SimDuration runtime_s = 100) {
      DurableEvent accepted;
      accepted.kind = DurableEventKind::kServiceSubmit;
      accepted.time = now;
      accepted.job = id;
      accepted.blob = "spec-" + std::to_string(id);
      runtime.Journal(accepted);
      return runtime.AddJob(
          MakeJob(id, JobType::kUnconstrained, 2, runtime_s, now));
    };
    enqueue(1, 0);                    // queued at the checkpoint
    runtime.Admit(enqueue(2, 0), 0);  // pending at the checkpoint
    runtime.Admit(enqueue(3, 0), 0);  // running at the checkpoint
    SchedulerPolicy::Decision decision;
    decision.start_now = {Place(3, 0, 2, 100)};
    runtime.Commit(0, decision, policy, hook);
    runtime.Checkpoint(4);

    enqueue(4, 8);                    // queued, journal only
    runtime.Admit(enqueue(5, 8), 8);  // running, journal only
    runtime.Admit(enqueue(6, 8, 1), 8);  // completed, journal only
    decision.start_now = {Place(5, 0, 2, 100), Place(6, 0, 2, 1)};
    runtime.Commit(8, decision, policy, hook);
    runtime.CompleteUntil(9);
    ASSERT_EQ(runtime.count(JobState::kCompleted), 1);
  }

  RecoveryResult result = persist->Recover();
  EXPECT_TRUE(result.snapshot_loaded);
  EXPECT_EQ(result.state.checkpoint_time, 4);
  ClusterRuntime restarted(cluster, {.persist = persist.get()});
  for (const auto& [id, spec] : result.state.service_jobs) {
    EXPECT_EQ(spec, "spec-" + std::to_string(id));
    restarted.AddJob(MakeJob(id, JobType::kUnconstrained, 2, 100));
  }
  EXPECT_EQ(restarted.num_jobs(), 5);  // job 6 finished
  auto [pending, running] = restarted.Resume(std::move(result.state));
  EXPECT_EQ(pending, 3);  // jobs 1, 2 and 4
  EXPECT_EQ(running, 2);  // jobs 3 and 5
  for (JobId id : {1, 2, 4}) {
    EXPECT_EQ(restarted.state(restarted.index_of(id)), JobState::kPending);
  }
  ASSERT_EQ(restarted.state(restarted.index_of(5)), JobState::kRunning);
  EXPECT_EQ(restarted.running().at(5).start, 8);
  EXPECT_EQ(restarted.next_completion(), 100);  // job 3 keeps its end
  EXPECT_EQ(restarted.ledger().total_free(), 8);
}

// Completions in the snapshot only retrain the runtime estimator after a
// restart, so a runtime that learns no estimates checkpoints none; one that
// learns keeps each, in completion order.
TEST(RuntimeTest, SnapshotKeepsCompletionsOnlyWhenLearningEstimates) {
  Cluster cluster = MakeUniformCluster(1, 4);
  for (bool learn : {false, true}) {
    SCOPED_TRACE(learn ? "learning" : "not learning");
    JournalStorage* storage = nullptr;
    std::unique_ptr<PersistenceManager> persist = MemoryJournal(&storage);
    ClusterRuntime runtime(cluster,
                           {.persist = persist.get(), .learn_estimates = learn});
    NullPolicy policy;
    LaunchHook hook;
    SchedulerPolicy::Decision decision;
    for (JobId id : {1, 2, 3}) {
      runtime.Arrive(
          runtime.AddJob(MakeJob(id, JobType::kUnconstrained, 1, 4 * id)), 0);
      decision.start_now.push_back(Place(id, 0, 1, 4 * id));
    }
    runtime.Commit(0, decision, policy, hook);
    runtime.CompleteUntil(12);
    ASSERT_EQ(runtime.count(JobState::kCompleted), 3);
    runtime.Checkpoint(12);

    RecoveryResult result = persist->Recover();
    ASSERT_TRUE(result.snapshot_loaded);
    if (learn) {
      EXPECT_EQ(result.state.completions,
                (std::vector<CompletionRecord>{
                    {1, true, 4}, {2, true, 8}, {3, true, 12}}));
    } else {
      EXPECT_TRUE(result.state.completions.empty());
      EXPECT_TRUE(runtime.image().completions.empty());
    }
    EXPECT_TRUE(result.state.running.empty());
  }
}

// The daemon's intake (Admit) and the simulator's ApplyAdmission reserve
// the same interval for the same job: one request, preferred estimate.
TEST(RuntimeTest, IntakeAdmissionReservesWhatApplyAdmissionReserves) {
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  Job job = MakeJob(1, JobType::kGpu, 3, 40, /*submit=*/12);
  job.wants_reservation = true;
  job.deadline = 400;
  job.estimate_error = 0.25;

  std::vector<Job> jobs{job};
  RayonAdmission sim_rayon(cluster.num_nodes());
  ASSERT_EQ(ApplyAdmission(cluster, jobs, &sim_rayon), 1);

  RayonAdmission daemon_rayon(cluster.num_nodes());
  ClusterRuntime runtime(cluster, {.rayon = &daemon_rayon});
  const int i = runtime.AddJob(job);
  runtime.Admit(i, /*now=*/12);

  EXPECT_EQ(runtime.job(i).slo_class, SloClass::kSloAccepted);
  EXPECT_EQ(runtime.job(i).reservation, jobs[0].reservation);
  EXPECT_EQ(jobs[0].reservation.end - jobs[0].reservation.start,
            job.EstimatedRuntime(/*preferred=*/true));
}

}  // namespace
}  // namespace tetrisched
