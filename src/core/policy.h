// Scheduler policy interface between the simulator and the scheduling
// algorithms (TetriSched variants and the Rayon/CapacityScheduler baseline).
//
// Each simulated scheduling cycle the simulator presents the pending queue
// and the holds of currently running jobs; the policy answers with the jobs
// to launch right now (as partition-count placements), jobs to drop (SLO jobs
// whose deadline became unreachable), and — for preemption-capable baselines
// — running jobs to kill.

#ifndef TETRISCHED_CORE_POLICY_H_
#define TETRISCHED_CORE_POLICY_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/core/job.h"
#include "src/solver/solve_status.h"

namespace tetrisched {

// What a running job currently holds and when the *scheduler believes* it
// will release it (estimate-derived; adjusted upward when observed late).
struct RunningHold {
  JobId job = -1;
  SloClass slo_class = SloClass::kBestEffort;
  SimTime start = 0;
  // End of the job's Rayon reservation window (kTimeNever unless accepted).
  // A running job past this instant is no longer guaranteed and becomes
  // preemptible in the baseline stack.
  SimTime reservation_end = kTimeNever;
  std::map<PartitionId, int> counts;
  SimTime expected_end = 0;
};

// A decision to start a job now on the given partition counts.
struct Placement {
  JobId job = -1;
  std::map<PartitionId, int> counts;
  SimDuration est_duration = 0;   // scheduler's belief for this placement
  bool preferred_belief = false;  // scheduler planned the fast option
  double value = 0.0;             // STRL value of the chosen option

  int total_nodes() const {
    int total = 0;
    for (const auto& [partition, count] : counts) {
      total += count;
    }
    return total;
  }
};

// Per-cycle measurements feeding the Fig-12 scalability analysis. Each phase
// is timed once (a ScopedSpan with a seconds sink, DESIGN.md §10); that one
// reading lands here, in the process-wide MetricsRegistry phase histograms
// (tetrisched_phase_*_ms) and, when observability is on, in the phase's span.
// The struct keeps the test-facing per-cycle view, the registry keeps the
// cumulative distributions.
struct CycleStats {
  double cycle_seconds = 0.0;   // wall-clock for the whole decision
  double solver_seconds = 0.0;  // wall-clock inside the MILP solver
  // Wall-clock of the other OnCycle phases: STRL expansion, STRL->MILP
  // compilation, and allocation extraction/commit bookkeeping.
  double strl_gen_seconds = 0.0;
  double compile_seconds = 0.0;
  double commit_seconds = 0.0;
  int milp_vars = 0;
  int milp_constraints = 0;
  int milp_nodes = 0;
  // Solver decomposition breakdown (DESIGN.md §12): independent components
  // of the cycle MILP (1 = monolithic) and wall-clock spent splitting it.
  int milp_components = 1;
  double decompose_ms = 0.0;
  int pending_count = 0;
  int scheduled_count = 0;
  int dropped_count = 0;
  // Graceful-degradation bookkeeping. `solve_status` is the worst MILP
  // outcome across the cycle's solves (kOptimal for non-MILP policies);
  // `used_fallback` marks cycles whose plan came from the greedy first-fit
  // ladder rung instead of the solver; `validator_rejects` counts
  // placements the pre-commit plan validator refused.
  SolveStatus solve_status = SolveStatus::kOptimal;
  bool used_fallback = false;
  int validator_rejects = 0;
  // Degradation-ladder rung that produced the committed plan: 0 = MILP,
  // 1 = greedy first-fit fallback, 2 = skip (nothing committed this cycle).
  // used_fallback == (ladder_rung > 0); the rung adds *which* rung.
  int ladder_rung = 0;
  // Cycle budget / adaptive plan-ahead (DESIGN.md §13). budget_seconds == 0
  // means the budget subsystem was off this cycle and the rest are inert.
  double budget_seconds = 0.0;     // configured cycle budget
  bool budget_blown = false;       // cycle_seconds exceeded the budget
  SimDuration effective_plan_ahead = 0;  // window actually used this cycle
  double effective_rel_gap = 0.0;        // rel_gap actually used this cycle
  // AIMD adaptation taken *after* this cycle: -1 = plan-ahead shrank,
  // +1 = restored a step, 0 = unchanged. The adapted state itself is durable
  // through the policy blob journaled with kCommitApplied.
  int plan_ahead_adapted = 0;
  // Incumbents refused by the independent plan certifier (certify.h); each
  // reject degrades the cycle to the greedy ladder rung.
  int certifier_rejects = 0;
};

class SchedulerPolicy {
 public:
  struct Decision {
    std::vector<Placement> start_now;
    std::vector<JobId> drop;
    std::vector<JobId> preempt;  // running jobs to kill (baseline only)
    CycleStats stats;
  };

  virtual ~SchedulerPolicy() = default;

  virtual Decision OnCycle(SimTime now,
                           const std::vector<const Job*>& pending,
                           const std::vector<RunningHold>& running) = 0;

  virtual const char* name() const = 0;

  // Opaque durable state for crash recovery (DESIGN.md §11). The simulator
  // journals the export with every committed cycle and feeds it back into a
  // freshly constructed policy after a crash. Stateless policies keep the
  // defaults; TetriSched round-trips its warm-start plan.
  virtual std::string ExportDurableState() const { return {}; }
  virtual void ImportDurableState(std::string_view /*blob*/) {}
};

}  // namespace tetrisched

#endif  // TETRISCHED_CORE_POLICY_H_
