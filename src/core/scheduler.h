// The TetriSched scheduler core (paper §3.2).
//
// Every cycle the scheduler:
//   1. quantizes the plan-ahead window into a TimeGrid aligned to absolute
//      quantum boundaries (so option identities are stable for warm starts),
//   2. computes per-partition availability from the holds of running jobs,
//   3. expands every pending job into a STRL expression (STRL Generator),
//   4. aggregates them under SUM, compiles to MILP, and solves with the
//      previous cycle's surviving plan as the warm-start incumbent,
//   5. commits only the allocations chosen to start *now*; deferred choices
//      are remembered solely as next cycle's warm start (adaptive re-planning
//      — nothing future is ever locked in).
//
// Feature ablations used in the paper's §7.2 (Table 2):
//   * global=false        -> TetriSched-NG: per-job MILPs in priority order
//   * heterogeneity=false -> TetriSched-NH: whole-cluster, slow-runtime STRL
//   * plan_ahead==quantum -> TetriSched-NP: now-or-never (alsched-like)
//
// Graceful degradation (DESIGN.md §9): when a cycle's MILP ends with no
// usable incumbent (SolveStatus::kNoIncumbent) or the resulting plan fails
// pre-commit validation, the cycle is replanned by a heterogeneity-aware
// greedy first-fit pass over the same availability grid; if even that plan
// fails validation, the cycle schedules nothing and replans next period.

#ifndef TETRISCHED_CORE_SCHEDULER_H_
#define TETRISCHED_CORE_SCHEDULER_H_

#include <chrono>
#include <map>
#include <set>
#include <vector>

#include "src/cluster/availability.h"
#include "src/cluster/cluster.h"
#include "src/common/budget.h"
#include "src/core/policy.h"
#include "src/core/strl_gen.h"
#include "src/solver/milp.h"

namespace tetrisched {

struct TetriSchedConfig {
  SimDuration plan_ahead = 96;  // paper sweeps 0..144 s; ~100 s saturates
  SimDuration quantum = 8;
  bool global = true;
  bool heterogeneity_aware = true;
  SimDuration be_decay_horizon = 600;
  // Extension beyond the paper (its S7.2 names preemption as future work):
  // when an accepted SLO job is about to lose its last feasible start and
  // best-effort containers hold the capacity, preempt the youngest BE jobs
  // and re-solve the cycle once. Off by default to match the paper.
  bool enable_preemption = false;
  // Seed each cycle's MILP with the previous cycle's surviving plan
  // (paper §3.2.2). Disable only for the warm-start ablation bench.
  bool enable_warm_start = true;
  // Cycle deadline enforcement + adaptive plan-ahead (DESIGN.md §13).
  // budget.budget_seconds == 0 (default) keeps the whole subsystem inert.
  // Independently of the budget, every global-cycle MILP incumbent is
  // re-checked by the plan certifier (certify.h) before commit; a reject
  // degrades the cycle to the greedy ladder rung.
  CycleBudgetOptions budget;
  MilpOptions milp = DefaultMilpOptions();

  static MilpOptions DefaultMilpOptions() {
    MilpOptions options;
    options.rel_gap = 0.10;  // paper §3.2.2: within 10% of optimal
    options.time_limit_seconds = 0.5;
    options.max_nodes = 2000;
    // Bail once the incumbent stops improving: scheduling bounds are loose
    // and only the solution itself is committed each cycle.
    options.stall_node_limit = 250;
    return options;
  }

  // Convenience constructors for the paper's ablated configurations.
  static TetriSchedConfig Full(SimDuration plan_ahead = 96);
  static TetriSchedConfig NoHeterogeneity(SimDuration plan_ahead = 96);
  static TetriSchedConfig NoGlobal(SimDuration plan_ahead = 96);
  static TetriSchedConfig NoPlanAhead();
};

class TetriScheduler : public SchedulerPolicy {
 public:
  TetriScheduler(const Cluster& cluster, TetriSchedConfig config);

  Decision OnCycle(SimTime now, const std::vector<const Job*>& pending,
                   const std::vector<RunningHold>& running) override;

  const char* name() const override;

  // Durable state = the warm-start plan (the only mutable policy state).
  // Round-tripping it through a crash keeps post-recovery solves on the
  // same incumbent trajectory as an uninterrupted run (DESIGN.md §11).
  std::string ExportDurableState() const override;
  void ImportDurableState(std::string_view blob) override;

  const TetriSchedConfig& config() const { return config_; }

  // Current adapted plan-ahead window / relative gap (== the configured
  // values unless the AIMD controller has shrunk them; exposed for tests).
  SimDuration effective_plan_ahead() const { return effective_plan_ahead_; }
  double effective_rel_gap() const { return effective_rel_gap_; }
  const AimdController& aimd() const { return aimd_; }

 private:
  // `planned` receives the ids of jobs given any allocation (now or
  // deferred) so rescue preemption can spot stranded SLO jobs.
  Decision GlobalCycle(SimTime now, const std::vector<const Job*>& pending,
                       AvailabilityGrid& availability,
                       std::set<JobId>* planned = nullptr);
  Decision GreedyCycle(SimTime now, const std::vector<const Job*>& pending,
                       AvailabilityGrid& availability);

  // Solver-free heterogeneity-aware first-fit over the availability grid:
  // the greedy rung of the degradation ladder. Only start-now placements
  // are produced (no deferral, no drops). Exposed for tests via OnCycle
  // with milp.time_limit_seconds = 0.
  std::vector<Placement> FirstFitPass(SimTime now,
                                      const std::vector<const Job*>& pending,
                                      AvailabilityGrid& availability) const;

  TimeGrid MakeGrid(SimTime now) const;
  AvailabilityGrid BuildAvailability(
      SimTime now, const std::vector<RunningHold>& running) const;

  // MILP options for this cycle's global solve: the configured options with
  // the adapted rel_gap and the wall-clock remaining in the cycle's solve
  // budget (when budgeted).
  MilpOptions CycleMilpOptions() const;
  // Maps the AIMD level onto effective_plan_ahead_ (quantized to whole
  // quanta, floored at one quantum = NP) and effective_rel_gap_.
  void ApplyAimdLevel();

  const Cluster& cluster_;
  TetriSchedConfig config_;
  StrlGenerator generator_;

  // Deferred choices from the previous cycle, keyed by stable leaf tags;
  // used only as the next solve's warm-start hint.
  LeafGrants previous_plan_;

  // Cycle budget / adaptive plan-ahead state (DESIGN.md §13).
  AimdController aimd_;
  SimDuration effective_plan_ahead_ = 0;
  double effective_rel_gap_ = 0.0;
  std::chrono::steady_clock::time_point cycle_start_{};
};

}  // namespace tetrisched

#endif  // TETRISCHED_CORE_SCHEDULER_H_
