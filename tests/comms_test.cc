// Tests for the lossy control plane (DESIGN.md §15): heartbeat failure
// detection (timeout and phi-accrual), the seeded lossy message channel,
// epoch fencing and reconciliation of double-placed gangs, stale-view
// scheduling, oracle-mode byte-identity, and crash recovery of the fence
// epoch table.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/core/scheduler.h"
#include "src/persist/journal.h"
#include "src/persist/persist.h"
#include "src/persist/records.h"
#include "src/sim/comms.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
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

CommsParams DetectorParamsOnly(SimDuration suspect_timeout) {
  CommsParams params;
  params.enabled = true;
  params.detector.suspect_timeout = suspect_timeout;
  return params;
}

// --- Failure-detector state machine ------------------------------------------

TEST(DetectorFsmTest, TimeoutDrivesSuspectDeadAndRecovery) {
  Cluster cluster = MakeUniformCluster(1, 4, 0);
  ControlPlane comms(cluster, DetectorParamsOnly(4));  // dead at 4x4 = 16
  ASSERT_TRUE(comms.active());

  comms.NodeDown(0, 10);  // heartbeats 1..10 delivered, then silence
  ControlPlane::Verdict verdict = comms.Evaluate(12, 1);
  EXPECT_TRUE(verdict.newly_suspect.empty());  // 2 s silence < 4 s timeout
  EXPECT_EQ(comms.belief(0), NodeBeliefState::kAlive);

  verdict = comms.Evaluate(16, 2);  // 6 s silence
  ASSERT_EQ(verdict.newly_suspect, std::vector<NodeId>{0});
  EXPECT_EQ(comms.belief(0), NodeBeliefState::kSuspect);
  EXPECT_TRUE(comms.BelievedDown(0));
  EXPECT_EQ(comms.counters().suspicions, 1);
  EXPECT_EQ(comms.counters().false_suspicions, 0);
  ASSERT_EQ(comms.detection_latencies().size(), 1u);
  EXPECT_DOUBLE_EQ(comms.detection_latencies()[0], 6.0);  // failed 10, seen 16

  verdict = comms.Evaluate(28, 3);  // 18 s silence > dead timeout
  ASSERT_EQ(verdict.newly_dead, std::vector<NodeId>{0});
  EXPECT_EQ(comms.belief(0), NodeBeliefState::kDead);
  EXPECT_EQ(comms.counters().dead_declared, 1);

  comms.NodeUp(0, 30);
  verdict = comms.Evaluate(32, 4);  // beats 31, 32 arrive
  ASSERT_EQ(verdict.recovered, std::vector<NodeId>{0});
  ASSERT_EQ(verdict.rebooted, std::vector<NodeId>{0});  // boot 2 > seen 1
  EXPECT_EQ(comms.belief(0), NodeBeliefState::kAlive);
  EXPECT_FALSE(comms.BelievedDown(0));
}

TEST(DetectorFsmTest, FalseSuspicionOnPartitionedButLiveNode) {
  Cluster cluster = MakeUniformCluster(1, 4, 0);
  CommsParams params = DetectorParamsOnly(4);
  params.partitions = {{10, 100, 0, -1}};  // node 0 unreachable from t = 10
  ControlPlane comms(cluster, params);

  ControlPlane::Verdict verdict = comms.Evaluate(20, 1);
  ASSERT_EQ(verdict.newly_suspect, std::vector<NodeId>{0});
  EXPECT_EQ(comms.counters().false_suspicions, 1);
  EXPECT_TRUE(comms.detection_latencies().empty());  // no real failure
  EXPECT_FALSE(comms.LinkUp(0, 20));
  EXPECT_TRUE(comms.LinkUp(1, 20));
}

TEST(DetectorFsmTest, PhiAccrualFloorsOnSmoothedGap) {
  Cluster cluster = MakeUniformCluster(1, 2, 0);
  CommsParams params = DetectorParamsOnly(2);
  params.detector.phi_threshold = 6.0;  // EMA gap stays 1 s -> threshold 6 s
  ControlPlane comms(cluster, params);

  comms.NodeDown(0, 10);
  ControlPlane::Verdict verdict = comms.Evaluate(14, 1);
  // A fixed 2 s timeout would already suspect (4 s silence); phi holds off.
  EXPECT_TRUE(verdict.newly_suspect.empty());
  verdict = comms.Evaluate(17, 2);  // 7 s silence > 6 s phi threshold
  ASSERT_EQ(verdict.newly_suspect, std::vector<NodeId>{0});
}

TEST(DetectorFsmTest, RebootWithinTimeoutIsStillDetected) {
  Cluster cluster = MakeUniformCluster(1, 4, 0);
  ControlPlane comms(cluster, DetectorParamsOnly(30));
  comms.NodeDown(0, 10);
  comms.NodeUp(0, 12);  // outage far shorter than the suspect timeout
  ControlPlane::Verdict verdict = comms.Evaluate(16, 1);
  EXPECT_TRUE(verdict.newly_suspect.empty());  // never even suspected
  ASSERT_EQ(verdict.rebooted, std::vector<NodeId>{0});  // boot count jumped
  EXPECT_EQ(comms.boot_count(0), 2u);
}

// --- Command channel and message faults --------------------------------------

TEST(CommandChannelTest, DropsOnDownNodePartitionAndLossDraw) {
  Cluster cluster = MakeUniformCluster(1, 4, 0);
  CommsParams params = DetectorParamsOnly(4);
  params.partitions = {{0, 100, 1, -1}};
  params.message.drop_prob = 1.0;
  ControlPlane comms(cluster, params);

  comms.NodeDown(0, 5);
  EXPECT_FALSE(comms.DeliverCommand(0, 6));  // node down
  EXPECT_FALSE(comms.DeliverCommand(1, 6));  // link partitioned
  EXPECT_FALSE(comms.DeliverCommand(2, 6));  // channel drops everything
  EXPECT_EQ(comms.counters().commands_dropped, 3);

  CommsParams clean = DetectorParamsOnly(4);
  clean.message.dup_prob = 1.0;
  ControlPlane dup(cluster, clean);
  EXPECT_TRUE(dup.DeliverCommand(2, 6));  // delivered, duplicate rejected
  EXPECT_EQ(dup.counters().stale_command_rejects, 1);
}

TEST(CommandChannelTest, FaultStreamsAreIndependent) {
  // Enabling duplication must not shift the drop draws of an otherwise
  // identical run (separate counter-based streams per fault class).
  Cluster cluster = MakeUniformCluster(1, 2, 0);
  CommsParams a = DetectorParamsOnly(4);
  a.message.drop_prob = 0.3;
  CommsParams b = a;
  b.message.dup_prob = 0.9;

  ControlPlane ca(cluster, a);
  ControlPlane cb(cluster, b);
  ca.Evaluate(200, 1);
  cb.Evaluate(200, 1);
  EXPECT_EQ(ca.counters().heartbeats_sent, cb.counters().heartbeats_sent);
  EXPECT_EQ(ca.counters().heartbeats_dropped,
            cb.counters().heartbeats_dropped);
  EXPECT_GT(cb.counters().heartbeats_duplicated, 0);
  EXPECT_EQ(ca.counters().heartbeats_duplicated, 0);
}

TEST(CommandChannelTest, OracleParamsDeactivateTheModel) {
  Cluster cluster = MakeUniformCluster(1, 2, 0);
  CommsParams params;  // disabled
  EXPECT_TRUE(params.oracle());
  params.enabled = true;  // enabled but faultless + zero timeout
  EXPECT_TRUE(params.oracle());
  ControlPlane comms(cluster, params);
  EXPECT_FALSE(comms.active());
  EXPECT_TRUE(comms.DeliverCommand(0, 5));  // inactive channel is perfect
  EXPECT_TRUE(comms.Evaluate(100, 1).newly_suspect.empty());

  params.detector.suspect_timeout = 8;
  EXPECT_FALSE(params.oracle());
}

// --- Epoch table durability (records codec) ----------------------------------

TEST(EpochRecordsTest, EpochBumpEventRoundTripsAndMaxMerges) {
  DurableEvent bump;
  bump.kind = DurableEventKind::kEpochBump;
  bump.time = 20;
  bump.node = 3;
  bump.epoch = 7;
  DurableEvent decoded;
  ASSERT_TRUE(DecodeEvent(EncodeEvent(bump), &decoded));
  EXPECT_EQ(decoded, bump);

  RecoveredState state;
  ApplyEvent(state, bump);
  EXPECT_EQ(state.epochs.at(3), 7u);
  bump.epoch = 5;  // stale bump must never regress the table
  ApplyEvent(state, bump);
  EXPECT_EQ(state.epochs.at(3), 7u);
}

TEST(EpochRecordsTest, SnapshotCarriesEpochTable) {
  RecoveredState state;
  state.checkpoint_time = 44;
  state.epochs = {{0, 2}, {5, 9}};
  RecoveredState decoded;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(state), &decoded));
  EXPECT_EQ(decoded, state);
}

// --- Rate-limited logging ----------------------------------------------------

TEST(LogRateLimiterTest, EmitsOncePerKeyPerWindowAndCountsSuppressed) {
  LogRateLimiter limiter(/*every_n_ticks=*/16);
  int64_t suppressed = -1;
  EXPECT_TRUE(limiter.ShouldLog(0, 0, &suppressed));
  EXPECT_EQ(suppressed, 0);
  for (int64_t tick = 1; tick < 16; ++tick) {
    EXPECT_FALSE(limiter.ShouldLog(0, tick, &suppressed));
  }
  EXPECT_TRUE(limiter.ShouldLog(1, 3, &suppressed));  // independent key
  EXPECT_EQ(suppressed, 0);
  EXPECT_TRUE(limiter.ShouldLog(0, 16, &suppressed));
  EXPECT_EQ(suppressed, 15);
  EXPECT_EQ(LogRateLimiter::SuppressedSuffix(15), " (+15 suppressed)");
  EXPECT_EQ(LogRateLimiter::SuppressedSuffix(0), "");
}

// --- Oracle-mode byte-identity -----------------------------------------------

// Zeroes the wall-clock latency column of `cycle` rows (the one
// nondeterministic field in a trace) so CSVs compare on schedule content.
std::string MaskCycleLatency(const std::string& csv) {
  std::string out;
  size_t start = 0;
  while (start < csv.size()) {
    size_t end = csv.find('\n', start);
    if (end == std::string::npos) {
      end = csv.size();
    }
    std::string line = csv.substr(start, end - start);
    if (line.find(",cycle,") != std::string::npos) {
      line = line.substr(0, line.rfind(',') + 1) + "x";
    }
    out += line;
    out += '\n';
    start = end + 1;
  }
  return out;
}

TEST(OracleModeTest, EnabledOracleCommsIsByteIdenticalToDisabled) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  auto run_once = [&](bool enable_comms) {
    std::vector<Job> jobs{
        MakeJob(1, JobType::kUnconstrained, 4, 60, 400, SloClass::kSloAccepted),
        MakeJob(2, JobType::kGpu, 2, 40, 400, SloClass::kSloUnreserved, 4),
        MakeJob(3, JobType::kUnconstrained, 8, 30, kTimeNever,
                SloClass::kBestEffort, 8),
    };
    SimConfig config;
    config.node_failures = {{20, 0, 40}};
    if (enable_comms) {
      config.comms.enabled = true;  // all-zero faults: oracle mode
    }
    SimTrace trace;
    config.trace = &trace;
    TetriSchedConfig sched_config = ExactConfig();
    sched_config.milp.time_limit_seconds = 1e9;
    TetriScheduler scheduler(cluster, sched_config);
    Simulator sim(cluster, scheduler, jobs, config);
    sim.Run();
    return MaskCycleLatency(trace.ToCsv());
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

// --- False suspicion: fencing and adoption -----------------------------------

TEST(FencingTest, FalseSuspicionFencesExactlyTheStalePlacement) {
  // One k=8 gang spans the cluster; node 0's control-plane link drops while
  // the node stays healthy. The detector falsely suspects it, the gang is
  // recalled (7 members killed, node 0's copy orphaned + fenced), and on
  // heal the reconciliation kills exactly that one stale task.
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 8, 100, kTimeNever,
                                SloClass::kBestEffort)};
  SimConfig config;
  config.comms = DetectorParamsOnly(8);
  config.comms.partitions = {{10, 60, 0, -1}};
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();

  EXPECT_GE(metrics.suspicions, 1);
  EXPECT_GE(metrics.false_suspicions, 1);
  EXPECT_EQ(metrics.failure_kills, 1);
  EXPECT_EQ(metrics.fenced_tasks, 1);  // exactly node 0's stale copy
  EXPECT_EQ(metrics.orphans_adopted, 0);
  EXPECT_EQ(metrics.validator_violations, 0);
  EXPECT_EQ(metrics.belief_invariant_violations, 0);
  ASSERT_TRUE(metrics.outcomes[0].completed);
  EXPECT_EQ(metrics.outcomes[0].retries, 1);
}

TEST(FencingTest, IntactOrphanIsAdoptedBackWithoutRestart) {
  // The whole rack partitions away: every member of the gang becomes
  // unreachable at once, so the orphaned copy stays intact. On heal the
  // survivor keeps its slot — the gang is adopted back and completes as if
  // never interrupted.
  Cluster cluster = MakeUniformCluster(1, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 4, 100, kTimeNever,
                                SloClass::kBestEffort)};
  SimConfig config;
  config.comms = DetectorParamsOnly(8);
  config.comms.partitions = {{10, 40, -1, 0}};  // rack 0
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.failure_kills, 1);  // recall still charges a kill
  EXPECT_EQ(metrics.orphans_adopted, 1);
  EXPECT_EQ(metrics.fenced_tasks, 0);
  EXPECT_EQ(metrics.belief_invariant_violations, 0);
  EXPECT_EQ(metrics.validator_violations, 0);
  ASSERT_TRUE(metrics.outcomes[0].completed);
  EXPECT_EQ(metrics.outcomes[0].retries, 1);
  // Survivor kept the slot: completion is the original end time, with no
  // restart of the 100 s runtime.
  EXPECT_EQ(metrics.outcomes[0].completion,
            metrics.outcomes[0].start_time + 100);
  EXPECT_EQ(metrics.recovery_latency.count(), 1u);
}

TEST(FencingTest, SilentRebootRecallsTheBrokenGang) {
  // Node 0 dies and returns well inside the suspect timeout; the detector
  // never suspects it, but the bumped boot count in resumed heartbeats
  // betrays the reboot and the broken gang is recalled.
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 8, 100, kTimeNever,
                                SloClass::kBestEffort)};
  SimConfig config;
  config.comms = DetectorParamsOnly(30);
  config.node_failures = {{10, 0, 12}};
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.suspicions, 0);
  EXPECT_EQ(metrics.failure_kills, 1);
  EXPECT_EQ(metrics.belief_invariant_violations, 0);
  EXPECT_EQ(metrics.validator_violations, 0);
  ASSERT_TRUE(metrics.outcomes[0].completed);
  EXPECT_EQ(metrics.outcomes[0].retries, 1);
}

// --- Crash recovery of the epoch table ---------------------------------------

TEST(FencingTest, CrashBetweenSuspicionAndReconciliationPreservesEpochs) {
  // The fence epoch is journaled (kEpochBump) before the in-memory bump; a
  // scheduler crash after the suspicion recall but before the partition
  // heals must recover the table, fence the stale copy on heal, and leave
  // the invariants intact.
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, JobType::kUnconstrained, 8, 100, kTimeNever,
                                SloClass::kBestEffort)};
  PersistenceManager persist(std::make_unique<MemoryJournalStorage>());
  SimConfig config;
  config.persist = &persist;
  config.comms = DetectorParamsOnly(8);
  config.comms.partitions = {{10, 60, 0, -1}};
  config.scheduler_crashes = {{24, CrashPhase::kBeforeCycle}};
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.scheduler_crashes, 1);
  EXPECT_EQ(metrics.recoveries, 1);
  EXPECT_EQ(metrics.fenced_tasks, 1);
  EXPECT_EQ(metrics.belief_invariant_violations, 0);
  ASSERT_TRUE(metrics.outcomes[0].completed);

  // The journaled epoch table survived the crash: node 0 was fenced once.
  RecoveryResult recovered = persist.Recover();
  ASSERT_EQ(recovered.state.epochs.count(0), 1u);
  EXPECT_GE(recovered.state.epochs.at(0), 1u);
}

// --- Generated comms faults (stochastic model) -------------------------------

TEST(CommsScheduleTest, PartitionsAreSeedStableAndDoNotPerturbChurn) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  FaultModelParams params;
  params.seed = 9;
  params.horizon = 4000;
  params.mtbf = 300.0;
  params.mttr = 40.0;
  params.suspect_timeout = 8;
  params.partition_mtbf = 400.0;
  params.partition_mttr = 25.0;
  params.rack_partition_prob = 0.3;

  FaultSchedule a = GenerateFaultSchedule(cluster, params);
  FaultSchedule b = GenerateFaultSchedule(cluster, params);
  EXPECT_TRUE(a.comms.enabled);
  EXPECT_FALSE(a.comms.oracle());
  EXPECT_FALSE(a.comms.partitions.empty());
  EXPECT_EQ(a.comms.partitions, b.comms.partitions);

  // Adding partitions must not shift the node-churn substreams.
  FaultModelParams no_parts = params;
  no_parts.partition_mtbf = 0.0;
  FaultSchedule c = GenerateFaultSchedule(cluster, no_parts);
  EXPECT_EQ(a.failures, c.failures);
  EXPECT_TRUE(c.comms.partitions.empty());
}

// --- End-to-end: determinism and safety under loss ---------------------------

SimMetrics RunLossyChurn(uint64_t fault_seed, double drop_prob) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  WorkloadParams workload;
  workload.kind = WorkloadKind::kGsMix;
  workload.seed = 11;
  workload.num_jobs = 12;
  std::vector<Job> jobs = GenerateWorkload(cluster, workload);
  ApplyAdmission(cluster, jobs);

  FaultModelParams faults;
  faults.seed = fault_seed;
  faults.horizon = 3000;
  faults.mtbf = 300.0;
  faults.mttr = 30.0;
  faults.msg_drop_prob = drop_prob;
  faults.msg_dup_prob = 0.05;
  faults.msg_delay = 1;
  faults.msg_delay_jitter = 2;
  faults.msg_reorder_prob = 0.05;
  faults.suspect_timeout = 8;
  faults.partition_mtbf = 600.0;
  faults.partition_mttr = 20.0;
  faults.rack_partition_prob = 0.3;
  FaultSchedule schedule = GenerateFaultSchedule(cluster, faults);

  SimConfig config;
  config.node_failures = schedule.failures;
  config.stragglers = schedule.stragglers;
  config.comms = schedule.comms;
  TetriSchedConfig sched_config = ExactConfig();
  sched_config.milp.time_limit_seconds = 1e9;
  TetriScheduler scheduler(cluster, sched_config);
  Simulator sim(cluster, scheduler, jobs, config);
  return sim.Run();
}

TEST(LossyDeterminismTest, SameSeedSameSchedule) {
  SimMetrics a = RunLossyChurn(5, 0.1);
  SimMetrics b = RunLossyChurn(5, 0.1);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.failure_kills, b.failure_kills);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.false_suspicions, b.false_suspicions);
  EXPECT_EQ(a.fenced_tasks, b.fenced_tasks);
  EXPECT_EQ(a.orphans_adopted, b.orphans_adopted);
  EXPECT_EQ(a.stale_placement_bounces, b.stale_placement_bounces);
  EXPECT_EQ(a.heartbeats_dropped, b.heartbeats_dropped);
  EXPECT_EQ(a.commands_dropped, b.commands_dropped);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion);
    EXPECT_EQ(a.outcomes[i].retries, b.outcomes[i].retries);
  }
}

TEST(LossyInvariantTest, LossAndChurnNeverLoseOrDoubleOccupy) {
  // The §15 invariant at every loss rate up to 20%: no node is ever owned
  // by two copies or leaked, and every gang either completes or is
  // explicitly dropped — never silently lost.
  for (double drop : {0.05, 0.2}) {
    SimMetrics metrics = RunLossyChurn(7, drop);
    EXPECT_EQ(metrics.belief_invariant_violations, 0) << "drop " << drop;
    EXPECT_EQ(metrics.validator_violations, 0) << "drop " << drop;
    for (const JobOutcome& outcome : metrics.outcomes) {
      EXPECT_TRUE(outcome.completed || outcome.dropped)
          << "job " << outcome.id << " lost at drop " << drop;
    }
    EXPECT_GT(metrics.heartbeats_dropped, 0) << "drop " << drop;
  }
}

}  // namespace
}  // namespace tetrisched
