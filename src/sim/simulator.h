// Discrete-event cluster simulator (substitute for the paper's 256/80-node
// physical YARN testbeds).
//
// The simulator drives the same ClusterRuntime (src/runtime, DESIGN.md §17)
// as tetrischedd, from a virtual clock. It keeps the event queue (arrivals,
// completions, cycles), fault and straggler injection, the lossy control
// plane and scheduler-crash injection; the runtime owns the job lifecycle:
// node occupancy, actual job runtimes (which depend on the true placement
// quality, not the scheduler's belief), completions, kills, drops and the
// journal. Policies only ever see estimates. Runtime mis-estimation
// therefore emerges exactly as in the paper: the scheduler plans with
// estimate-derived expected completions while jobs complete on their actual
// runtimes.
//
// Metrics collected match §6.3: accepted / total / unreserved SLO attainment,
// mean best-effort latency, plus cycle & solver latency distributions and
// cluster utilization for the scalability analysis.

#ifndef TETRISCHED_SIM_SIMULATOR_H_
#define TETRISCHED_SIM_SIMULATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/stats.h"
#include "src/core/job.h"
#include "src/core/policy.h"
#include "src/persist/persist.h"
#include "src/rayon/rayon.h"
#include "src/runtime/cluster_runtime.h"
#include "src/sim/comms.h"
#include "src/sim/faults.h"
#include "src/sim/trace.h"

namespace tetrisched {

struct SimConfig {
  SimDuration cycle_period = 4;  // paper §6.3: TetriSched cycle = 4 s
  SimTime max_time = 4000000;    // safety stop
  // Fault injection (faults.h): scripted lists or the output of
  // GenerateFaultSchedule. node_failures is validated/normalized up front
  // (bad entries are dropped with one warning each).
  std::vector<NodeFailure> node_failures;
  std::vector<StragglerEvent> stragglers;
  // Scheduler-process crashes (faults.h): each fires at the first cycle at
  // or after its `at`, at the given CrashPhase, and is followed by recovery
  // from the persistence subsystem (snapshot load + journal replay +
  // reconciliation against surviving cluster state). At most one crash
  // fires per cycle.
  std::vector<SchedulerCrashEvent> scheduler_crashes;
  // Durability subsystem (persist.h). When set, the run journals every
  // durable scheduler event (two-phase commits, Rayon agenda changes,
  // kills/completions/drops) through it and recovers from it after an
  // injected crash. Not owned. When crashes are configured without one, an
  // in-memory journal is used automatically.
  PersistenceManager* persist = nullptr;
  // Builds the replacement policy after a crash (a real restart constructs
  // a fresh scheduler process). The recovered durable state is imported
  // into the new policy. When unset, the original policy object is reused
  // (its durable state still reset from the journal).
  std::function<std::unique_ptr<SchedulerPolicy>()> policy_factory;
  // Retry policy for failure-killed gangs: a killed gang re-enters the
  // pending queue after a capped exponential backoff
  // (min(retry_backoff_cap, retry_backoff << (kills-1)); 0 = immediate)
  // and is dropped outright after max_retries kills.
  int max_retries = 5;
  SimDuration retry_backoff = 4;
  SimDuration retry_backoff_cap = 64;
  // Lossy control plane (comms.h, DESIGN.md §15). When enabled and not in
  // oracle mode, the scheduler stops seeing ground truth: node failures are
  // learned through heartbeat silence (timeout / phi-accrual detector),
  // placement and kill commands can be lost, and every cycle plans against
  // the believed ClusterView. Epoch fencing keeps false suspicions safe:
  // unreachable copies are orphaned and later adopted back or fenced. With
  // the default (disabled / oracle) params the simulator takes its legacy
  // instant-detection path and schedules are byte-identical to pre-§15
  // builds. Usually copied from FaultSchedule::comms.
  CommsParams comms;
  // Re-admission agenda: when set (the one ApplyAdmission used), an
  // accepted-SLO gang whose reservation no longer fits its post-kill
  // restart window is re-admitted against the remaining window
  // (shrink) or downgraded to unreserved (drop). Not owned.
  RayonAdmission* rayon = nullptr;
  // Run a RuntimeEstimator in the loop: completions train it, and pending
  // jobs from sufficiently-observed clusters have their (error-injected)
  // estimates replaced by learned ones (paper Fig 2's Perforator role).
  bool learn_estimates = false;
  // Optional event recorder (not owned; must outlive Run()).
  SimTrace* trace = nullptr;
  // Observability exports (DESIGN.md §10). When any path is non-empty,
  // Run() turns on clock-reading instrumentation (SetObservabilityEnabled)
  // for its duration and writes the corresponding file on exit:
  //   * metrics_json_path — registry snapshot as JSON (per-phase histograms
  //     with p50/p95/p99/max),
  //   * metrics_prom_path — the same registry in Prometheus text format,
  //   * trace_json_path   — Chrome trace-event JSON of the span tree
  //     (open in chrome://tracing or https://ui.perfetto.dev).
  // Empty fields default from the TETRISCHED_METRICS_JSON /
  // TETRISCHED_METRICS_PROM / TETRISCHED_TRACE_JSON environment variables
  // in the Simulator constructor, so every bench and example supports
  // exports without per-binary wiring. Exports never change scheduling
  // decisions: instrumentation only reads clocks and bumps atomics.
  std::string metrics_json_path;
  std::string metrics_prom_path;
  std::string trace_json_path;
  // Decision provenance (DESIGN.md §14). kAuto turns the flight recorder on
  // exactly when provenance_jsonl_path is non-empty (the path defaults from
  // TETRISCHED_PROVENANCE_JSONL, like the exports above); kOn/kOff force it
  // regardless of the path — benches use kOff to measure a provenance-free
  // baseline even when the environment requests an export. Recording never
  // changes scheduling decisions; with the recorder off, runs are
  // byte-identical to a build without it.
  enum class ProvenanceMode { kAuto, kOn, kOff };
  ProvenanceMode provenance = ProvenanceMode::kAuto;
  std::string provenance_jsonl_path;
  // Ring capacity override; 0 = TETRISCHED_PROVENANCE_RING (default 65536).
  size_t provenance_ring = 0;
};

struct SimMetrics {
  std::vector<JobOutcome> outcomes;
  SampleStats cycle_latency_ms;
  SampleStats solver_latency_ms;
  SampleStats milp_vars;
  // Independent components the cycle MILP split into (1 = monolithic);
  // sampled only on cycles that built a model, like milp_vars.
  SampleStats milp_components;
  double utilization = 0.0;  // busy node-seconds / (nodes * makespan)
  SimTime makespan = 0;
  int preemptions = 0;
  int failure_kills = 0;  // jobs killed by node failures (then requeued)

  // Graceful-degradation and churn accounting.
  int fallback_cycles = 0;        // cycles planned by the greedy fallback
  int validator_violations = 0;   // plans/placements rejected by validation
  int retries_exhausted = 0;      // jobs dropped after max_retries kills
  int readmissions = 0;           // reservations successfully re-placed
  int reservations_dropped = 0;   // reservations invalidated with no re-fit
  int straggler_slowed_starts = 0; // gangs started on >= 1 fail-slow node
  SampleStats recovery_latency;   // kill -> restart gap per retry (s)

  // Cycle budget / adaptive plan-ahead accounting (DESIGN.md §13).
  int budget_blown_cycles = 0;      // cycles exceeding their wall-clock budget
  int plan_ahead_adaptations = 0;   // AIMD shrink/restore steps taken
  int certifier_rejects = 0;        // incumbents refused by the plan certifier

  // Lossy control plane / failure detector accounting (DESIGN.md §15).
  int suspicions = 0;           // kAlive -> kSuspect transitions
  int false_suspicions = 0;     // suspected nodes that were actually up
  int dead_declared = 0;        // kSuspect -> kDead transitions
  int fenced_tasks = 0;         // stale orphan tasks killed via epoch fencing
  int orphans_adopted = 0;      // orphaned copies adopted back intact
  int stale_placement_bounces = 0;  // commits refused by ground truth
  int64_t heartbeats_dropped = 0;   // lost to message faults or partitions
  int64_t commands_dropped = 0;     // placement/kill commands lost
  int64_t stale_command_rejects = 0;  // duplicate/stale commands refused
  // Nodes occupied by no copy, or claimed by more than one copy, at any
  // cycle boundary. The §15 invariant: always zero.
  int belief_invariant_violations = 0;
  SampleStats detection_latency;  // true failure -> suspicion gap (s)

  // Scheduler-crash/persistence accounting (DESIGN.md §11).
  int scheduler_crashes = 0;     // injected crashes that fired
  int recoveries = 0;            // successful recovery passes
  int journal_replayed = 0;      // journal records replayed across recoveries
  int journal_dropped = 0;       // torn/corrupt tail records truncated away
  int recovery_adoptions = 0;    // running gangs adopted from a pending intent
  int recovery_mismatches = 0;   // RM-view vs cluster ground-truth conflicts
  SampleStats recovery_ms;       // wall-clock per recovery pass (ms)

  // §6.3 success metrics. Fractions in [0,1]; 0 when the class is empty.
  double AcceptedSloAttainment() const;
  double TotalSloAttainment() const;
  double UnreservedSloAttainment() const;
  double MeanBestEffortLatency() const;

  int CountJobs(SloClass slo_class) const;
  std::string Summary() const;
};

class Simulator {
 public:
  // `jobs` must already be admission-processed (slo_class set) and sorted by
  // submit time. The policy and cluster must outlive Run().
  Simulator(const Cluster& cluster, SchedulerPolicy& policy,
            std::vector<Job> jobs, SimConfig config = {});

  SimMetrics Run();

 private:
  const Cluster& cluster_;
  SchedulerPolicy& policy_;
  std::vector<Job> jobs_;
  SimConfig config_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_SIM_SIMULATOR_H_
