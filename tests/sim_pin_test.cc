// Cross-version schedule pins: two seeded simulator runs whose full event
// trace and summary counters are compared against constants recorded from
// a known-good build. Same-run determinism is tested elsewhere; these pins
// catch a refactor that silently changes what the simulator schedules.
//
// Run 1 exercises the job lifecycle end to end under an oracle control
// plane: GS HET on a 16-node cluster, node churn, fail-slow stragglers,
// failure kills with retry backoff and Rayon re-admission, and one
// scheduler crash at every CrashPhase. Run 2 adds a lossy control plane
// (message loss, a heartbeat detector and partitions), so recalls, false
// suspicions and epoch fencing are pinned as well.
//
// The solver has no wall-clock limit, so only the search decides the
// schedule. The value column of kCycle and kRecover rows is wall-clock time
// and is masked before hashing.
//
// When a change is meant to alter schedules, re-record the constants: the
// failure message prints the new digest and summary.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/rayon/rayon.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/workload/workload.h"

namespace tetrisched {
namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

struct PinnedRun {
  std::string trace_digest;
  std::string summary;
  SimMetrics metrics;
};

PinnedRun RunPinned(bool lossy) {
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  WorkloadParams params;
  params.kind = WorkloadKind::kGsHet;
  params.num_jobs = 24;
  params.seed = 23;
  std::vector<Job> jobs = GenerateWorkload(cluster, params);
  RayonAdmission rayon(cluster.num_nodes());
  ApplyAdmission(cluster, jobs, &rayon);

  FaultModelParams faults;
  faults.seed = 5;
  faults.horizon = 1500;
  faults.mtbf = 600.0;
  faults.mttr = 40.0;
  faults.straggler_prob = 0.5;
  faults.straggler_slowdown = 2.0;
  if (lossy) {
    faults.msg_drop_prob = 0.05;
    faults.suspect_timeout = 8;
    faults.partition_mtbf = 300.0;
    faults.partition_mttr = 30.0;
  }
  FaultSchedule schedule = GenerateFaultSchedule(cluster, faults);

  SimConfig config;
  config.node_failures = schedule.failures;
  config.stragglers = schedule.stragglers;
  config.comms = schedule.comms;
  if (lossy) {
    // A single-node and a whole-rack control-plane partition of live nodes.
    config.comms.partitions.push_back({150, 190, 2, -1});
    config.comms.partitions.push_back({300, 330, -1, 1});
  }
  config.rayon = &rayon;
  config.retry_backoff = 8;
  config.provenance = SimConfig::ProvenanceMode::kOff;
  if (!lossy) {
    for (int phase = 0; phase < kNumCrashPhases; ++phase) {
      config.scheduler_crashes.push_back(
          {static_cast<SimTime>(28 + 36 * phase),
           static_cast<CrashPhase>(phase)});
    }
  }
  TetriSchedConfig sched_config = TetriSchedConfig::Full();
  sched_config.milp.time_limit_seconds = 1e9;
  config.policy_factory = [&cluster, sched_config]() {
    return std::make_unique<TetriScheduler>(cluster, sched_config);
  };
  SimTrace trace;
  config.trace = &trace;
  TetriScheduler scheduler(cluster, sched_config);
  Simulator sim(cluster, scheduler, std::move(jobs), config);

  PinnedRun run;
  run.metrics = sim.Run();
  SimTrace masked;
  for (TraceEvent event : trace.events()) {
    if (event.kind == TraceEventKind::kCycle ||
        event.kind == TraceEventKind::kRecover) {
      event.value = 0.0;
    }
    masked.Record(event);
  }
  run.trace_digest = Hex(Fnv1a(masked.ToCsv()));
  run.summary = run.metrics.Summary();
  return run;
}

TEST(SimPinTest, ChurnRetriesReadmissionAndEveryCrashPhase) {
  PinnedRun run = RunPinned(/*lossy=*/false);
  const SimMetrics& m = run.metrics;
  // The scenario must keep exercising what it pins.
  EXPECT_EQ(m.scheduler_crashes, kNumCrashPhases);
  EXPECT_EQ(m.recoveries, kNumCrashPhases);
  EXPECT_GT(m.failure_kills, 0);
  EXPECT_GT(m.readmissions, 0);
  EXPECT_GT(m.reservations_dropped, 0);
  EXPECT_GT(m.straggler_slowed_starts, 0);
  EXPECT_EQ(m.validator_violations, 0);

  EXPECT_EQ(run.trace_digest, "7d214a03ee451de2");
  EXPECT_EQ(run.summary,
            "SLO attainment: total 81.8%, accepted 81.0%, w/o reservation "
            "100.0%; BE mean latency 167.5 s; utilization 61.0%; makespan "
            "752 s; churn: 7 kills, 0 retry-exhausted, 5 readmissions, 2 "
            "reservations dropped, 0 fallback cycles, 0 validator "
            "violations; crashes: 10 injected, 10 recoveries, 203 records "
            "replayed, 0 dropped, 0 adoptions, 0 mismatches");
  EXPECT_EQ(m.straggler_slowed_starts, 2);
}

TEST(SimPinTest, LossyControlPlane) {
  PinnedRun run = RunPinned(/*lossy=*/true);
  const SimMetrics& m = run.metrics;
  EXPECT_GT(m.false_suspicions, 0);
  EXPECT_GT(m.fenced_tasks, 0);
  EXPECT_GT(m.commands_dropped, 0);
  EXPECT_GT(m.failure_kills, 0);
  EXPECT_EQ(m.belief_invariant_violations, 0);

  EXPECT_EQ(run.trace_digest, "59214589925c0bc8");
  EXPECT_EQ(run.summary,
            "SLO attainment: total 72.7%, accepted 76.2%, w/o reservation "
            "0.0%; BE mean latency 151.5 s; utilization 59.2%; makespan 828 "
            "s; churn: 9 kills, 0 retry-exhausted, 4 readmissions, 3 "
            "reservations dropped, 0 fallback cycles, 0 validator "
            "violations; detector: 15 suspicions (5 false), 9 dead, 6 fenced "
            "tasks, 0 orphans adopted, 7 stale bounces, 0 belief violations, "
            "mean detection 10.2 s");
  EXPECT_EQ(m.straggler_slowed_starts, 2);
}

}  // namespace
}  // namespace tetrisched
