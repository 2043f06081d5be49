// Branch-and-bound MILP solver over the bounded-variable simplex.
//
// Mirrors the way TetriSched drives CPLEX in the paper (§3.2.2): the solver
// is asked for a solution within a relative optimality gap (10% default)
// under a wall-clock budget, and can be seeded with a feasible warm-start
// incumbent (the previous cycle's schedule). If the budget expires, the best
// incumbent found so far is returned rather than failing.
//
// Solve is one pipeline under one deadline: presolve once, detect
// components once, run one branch-and-bound search per component (or one
// for the whole model), then stitch the components and restore through
// presolve (DESIGN.md §12, §13).
//
// Search: one best-bound loop whose first node is the root (solved cold on
// the search's one LP solver), most-fractional branching, and a diving
// heuristic at the root (and every 64th node) to obtain an incumbent
// quickly. Every outcome, infeasible and unbounded included, is reported by
// one SolveStatus (solve_status.h). The solver starts no thread: the tree,
// and every decomposed component in turn, is explored on the calling
// thread, so node order, node counts and results depend on the model and
// the options alone, never on the machine's core count (see DESIGN.md §8).
// The reported bound covers every subtree the search did not close and
// never sits below the incumbent.

#ifndef TETRISCHED_SOLVER_MILP_H_
#define TETRISCHED_SOLVER_MILP_H_

#include <span>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/solve_status.h"

namespace tetrisched {

struct MilpOptions {
  double rel_gap = 0.10;         // paper: "within 10% of the optimal"
  double abs_gap = 1e-6;
  int max_nodes = 20000;
  // Wall-clock budget of the whole solve: one deadline, armed when Solve
  // starts and polled inside every LP solve (budget.h, DESIGN.md §13), so a
  // solve cut off mid-LP returns the best incumbent so far with
  // SolveStatus::kTimeLimit, never a torn result. Decomposed components,
  // searched one after another, take weighted slices of it (DeadlinePool).
  double time_limit_seconds = 10.0;
  // Stop after this many B&B nodes without incumbent improvement and return
  // the incumbent (status kFeasible). 0 disables. The equivalent of a
  // commercial solver's "solution polishing" abort: on scheduling models the
  // bound is loose, so proving the gap often costs far more than finding the
  // near-optimal solution.
  int stall_node_limit = 0;
  // Exact model reductions before search (see presolve.h). On by default;
  // disable to measure its effect.
  bool enable_presolve = true;
  // Split the (presolved) model into connected components of its
  // variable-constraint incidence graph and search them in turn as
  // independent sub-MILPs (see decompose.h / DESIGN.md §12). Exact; on by
  // default. Single-component models bypass the layer and are bit-identical
  // to a monolithic solve.
  bool enable_decomposition = true;
  // Has no effect: the solver starts no thread. Kept only because the
  // benchmark harness (perfbench/harness) still assigns it.
  int num_threads = 0;
};

struct MilpResult {
  // How the solve ended (solve_status.h). kNoIncumbent whenever `values`
  // holds nothing better than the trivial all-zero fallback (or nothing at
  // all): the caller should not treat it as a schedule.
  SolveStatus solve_status = SolveStatus::kNoIncumbent;
  double objective = 0.0;        // incumbent objective (valid if HasSolution)
  std::vector<double> values;    // incumbent assignment; empty if none
  // Upper bound on the optimum: the largest bound of any subtree the search
  // did not close, and never below `objective` (+inf when the root
  // relaxation did not finish).
  double best_bound = 0.0;
  int nodes = 0;
  long lp_iterations = 0;
  double solve_seconds = 0.0;
  // Decomposition breakdown (DESIGN.md §12): number of independent
  // components solved (1 = monolithic / bypass), wall-clock spent detecting
  // and extracting them (the solver.decompose span), and the slowest single
  // component search. Without a split only the detection cost is nonzero.
  int components = 1;
  double decompose_ms = 0.0;
  double max_component_ms = 0.0;

  bool HasSolution() const { return !values.empty(); }
};

class MilpSolver {
 public:
  explicit MilpSolver(const MilpModel& model, MilpOptions options = {});

  // `warm_start`, if non-empty, is checked for feasibility and used as the
  // initial incumbent (size must be model.num_vars()).
  MilpResult Solve(std::span<const double> warm_start = {});

 private:
  const MilpModel& model_;
  MilpOptions options_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_MILP_H_
