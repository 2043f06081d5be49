// Branch-and-bound MILP solver over the bounded-variable simplex.
//
// Mirrors the way TetriSched drives CPLEX in the paper (§3.2.2): the solver
// is asked for a solution within a relative optimality gap (10% default)
// under a wall-clock budget, and can be seeded with a feasible warm-start
// incumbent (the previous cycle's schedule). If the budget expires, the best
// incumbent found so far is returned rather than failing.
//
// Search: best-bound node selection, most-fractional branching, and a diving
// heuristic at the root to obtain an incumbent quickly. With num_threads > 1
// the tree is explored by a pool of workers sharing a best-bound node queue
// and an incumbent; each worker owns a private LpSolver (basis warm-start
// state) so LP solves run without any locking (see DESIGN.md §8).

#ifndef TETRISCHED_SOLVER_MILP_H_
#define TETRISCHED_SOLVER_MILP_H_

#include <span>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/simplex.h"
#include "src/solver/solve_status.h"

namespace tetrisched {

enum class MilpStatus {
  kOptimal,     // proven within abs gap of the true optimum
  kGapLimit,    // feasible, proven within the requested relative gap
  kFeasible,    // feasible, but node/time limit hit before proving the gap
  kInfeasible,  // no feasible assignment exists
  kUnbounded,
  kNoSolution,  // limits hit before any incumbent was found
};

struct MilpOptions {
  double rel_gap = 0.10;         // paper: "within 10% of the optimal"
  double abs_gap = 1e-6;
  int max_nodes = 20000;
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
  // variable-constraint incidence graph and solve them as independent
  // sub-MILPs on the thread pool (see decompose.h / DESIGN.md §12). Exact;
  // on by default. Single-component models bypass the layer and are
  // bit-identical to a monolithic solve.
  bool enable_decomposition = true;
  // Branch-and-bound workers sharing one best-bound node queue. 0 means one
  // worker per hardware thread. 1 runs the search on the calling thread with
  // fully deterministic node ordering and node counts (use it in tests that
  // assert either). >1 keeps the same gap/time/node guarantees but the node
  // visit order — and therefore the node count — varies run to run.
  int num_threads = 0;
  // External cooperative deadline (budget.h), composed with
  // time_limit_seconds: the solve arms an internal token at whichever
  // deadline comes first and threads it through the root LP, presolve
  // recursion, every branch-and-bound worker's LP solves, the diving
  // heuristic, and each decomposed component, so the wall-clock limit is
  // honored *inside* an LP solve rather than only at node boundaries. A solve
  // cut off mid-LP returns the best incumbent so far with
  // SolveStatus::kTimeLimit — never a torn result. Not owned; nullptr (or an
  // unarmed token) leaves only the internal time_limit_seconds deadline.
  const CancelToken* cancel = nullptr;
  LpOptions lp;
};

struct MilpResult {
  MilpStatus status = MilpStatus::kNoSolution;
  // Operational classification of how the solve ended (solve_status.h).
  // kNoIncumbent whenever `values` holds nothing better than the trivial
  // all-zero fallback: the caller should not treat it as a schedule.
  SolveStatus solve_status = SolveStatus::kNoIncumbent;
  double objective = 0.0;        // incumbent objective (valid unless kNoSolution)
  std::vector<double> values;    // incumbent assignment
  double best_bound = 0.0;       // proven upper bound on the optimum
  int nodes = 0;
  long lp_iterations = 0;
  int threads_used = 1;  // resolved worker count (after the 0 = auto default)
  double solve_seconds = 0.0;
  // Decomposition breakdown (DESIGN.md §12): number of independent
  // components solved (1 = monolithic / bypass), wall-clock spent detecting
  // and extracting them, and the slowest single component solve. When
  // components == 1 the two timings stay 0 except for detection cost.
  int components = 1;
  double decompose_ms = 0.0;
  double max_component_ms = 0.0;

  bool HasSolution() const {
    return status == MilpStatus::kOptimal || status == MilpStatus::kGapLimit ||
           status == MilpStatus::kFeasible;
  }
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
