// Component decomposition of the cycle MILP (DESIGN.md §12).
//
// TetriSched's aggregate objective is a top-level SUM of per-job STRL
// expressions, so jobs are coupled only through shared space-time supply
// rows: whenever jobs prefer disjoint equivalence sets or non-overlapping
// plan-ahead slots, the compiled model is block-diagonal. Solving k
// independent sub-MILPs is exponentially cheaper than one monolithic branch
// and bound over their union. MilpSolver::Solve searches the components in
// index order on the calling thread, each under a weighted slice of the
// solve's one deadline (DeadlinePool, DESIGN.md §13).
//
// The layer has three stages, all exact:
//   1. DetectComponents: union-find over the variable-constraint incidence
//      graph, O(num_vars + nonzeros). Runs after presolve, whose variable
//      fixings fold fixed columns out of the remaining rows and thereby
//      sever couplings (a culled job splits away from the supply rows it can
//      no longer touch).
//   2. ExtractComponents: sub-models with index remapping (original
//      variable order is preserved inside each component, so extraction is
//      deterministic); node/stall budgets and the absolute gap apportioned
//      by variable share; the warm-start vector sliced per component.
//   3. StitchComponents: after MilpSolver::Solve has searched every
//      component, the incumbents, bounds, statuses and counters merge back
//      into one MilpResult.
//
// MilpSolver::Solve consults this layer when MilpOptions::enable_decomposition
// is set (the default): single-component models bypass it entirely and are
// bit-identical to the monolithic search.

#ifndef TETRISCHED_SOLVER_DECOMPOSE_H_
#define TETRISCHED_SOLVER_DECOMPOSE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/solver/milp.h"
#include "src/solver/model.h"
#include "src/solver/solve_status.h"

namespace tetrisched {

// Connected components of a model's variable-constraint incidence graph.
struct Decomposition {
  // Number of row-induced components. Variables that appear in no constraint
  // are not counted: they are "free" and stitched analytically.
  int num_components = 0;
  // Per variable: component index, or -1 for a free variable.
  std::vector<int32_t> var_component;
  // Per constraint row: component index.
  std::vector<int32_t> row_component;
  // Per component: variable / row counts (budget apportionment weights).
  std::vector<int> component_vars;
  std::vector<int> component_rows;
  // Set when the model contains a shape the splitter refuses to reason
  // about (currently: a constraint with no terms); callers must fall back
  // to the monolithic solve.
  bool bypass = false;

  int largest_component_vars() const {
    int largest = 0;
    for (int vars : component_vars) {
      largest = std::max(largest, vars);
    }
    return largest;
  }

  // True when the model genuinely splits and ExtractComponents applies.
  bool Splits() const { return !bypass && num_components >= 2; }
};

// Builds the incidence-graph components of `model`. O(num_vars + nonzeros);
// no sub-models are built (ExtractComponents builds them only when the model
// actually splits).
Decomposition DetectComponents(const MilpModel& model);

// Cross-component merge of the solve status. A proof about one component
// holds for the whole model: kInfeasible dominates, then kUnbounded. The
// one deliberate asymmetry (DESIGN.md §12): a kNoIncumbent component
// degrades only itself — its sub-plan is the trivial zero vector, but the
// other components' allocations still land, so the merged plan is reported
// as kTimeLimit (partial) rather than kNoIncumbent. Only when *every*
// component failed does the merge stay kNoIncumbent and hand the scheduler
// to its degradation ladder. Otherwise the weakest claim wins.
SolveStatus MergeSolveStatus(SolveStatus a, SolveStatus b);

// One extracted component: the sub-model, its variable map back into the
// original space (its size is the component's deadline-pool weight), its
// sliced warm start, its budget share, and, once searched, its result and
// search wall-clock.
struct Component {
  MilpModel model;
  std::vector<VarId> vars;  // component variable id -> original variable id
  std::vector<double> warm;
  MilpOptions options;  // node/stall/abs-gap shares; other fields as given
  MilpResult result;
  double seconds = 0.0;
};

// Builds one Component per component of `decomp` (which must satisfy
// Splits()). `warm_start`, when sized to the model, is sliced per component.
std::vector<Component> ExtractComponents(const MilpModel& model,
                                         const Decomposition& decomp,
                                         const MilpOptions& options,
                                         std::span<const double> warm_start);

// Stitches the searched components' results into one MilpResult over the
// original variable space; free variables sit at their objective-maximizing
// bound. Statuses merge by MergeSolveStatus; a component with no assignment
// at all leaves the stitched result with none. Leaves solve_seconds and
// decompose_ms to the caller.
MilpResult StitchComponents(const MilpModel& model, const Decomposition& decomp,
                            const std::vector<Component>& components);

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_DECOMPOSE_H_
