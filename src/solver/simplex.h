// Bounded-variable two-phase primal simplex.
//
// Solves the LP relaxation of a MilpModel (integrality dropped):
//
//     maximize c'x  subject to  Ax {<=,>=,==} b,  l <= x <= u
//
// Internally each row gets a slack variable so the system becomes
// A x + I s = b with bounds on slacks encoding the row sense. The columns of
// [A | I] live in one compressed-sparse-column block (an offsets array plus
// one entries array, built by a counting pass), so constructing a solver
// costs a handful of allocations however many columns the model has. The
// solver keeps an explicit dense basis inverse, refactorized periodically,
// and uses partial (rotating-section) Dantzig pricing — widening to a full
// scan before declaring optimality — with a Bland's-rule fallback against
// cycling. The pivot loop's scratch vectors (dual row, tableau column,
// phase-1 costs) are members, reused by every Solve on the same instance.
//
// Branch-and-bound passes per-variable bound overrides (branching decisions)
// and may seed the solver with a basis snapshot from the parent node.

#ifndef TETRISCHED_SOLVER_SIMPLEX_H_
#define TETRISCHED_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/budget.h"
#include "src/solver/model.h"

namespace tetrisched {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  // Cooperative cancellation (LpOptions::deadline passed mid-solve). The
  // result carries no values: a cancelled solve is abandoned, never torn.
  kCancelled,
};

struct LpOptions {
  // Consecutive degenerate pivots before pricing falls back to Bland's
  // anti-cycling rule (counted in tetrisched_solver_bland_activations_total).
  // <= 0 engages Bland's rule from the first pivot.
  int bland_pivot_limit = 256;
  // Cooperative deadline, polled every few pivots inside Iterate and per
  // column during warm-basis refactorization. The default never expires and
  // never reads the clock.
  Deadline deadline;
};

// Basis snapshot for warm starting (opaque to callers).
struct LpBasis {
  std::vector<int32_t> basic;    // row -> variable index (structural+slack)
  std::vector<uint8_t> status;   // per-variable nonbasic status
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // structural variables only
  int iterations = 0;
};

class LpSolver {
 public:
  // The model must outlive the solver. Constraint matrix and objective are
  // captured at construction; bounds may be overridden per Solve call.
  explicit LpSolver(const MilpModel& model, LpOptions options = {});

  // Solves with the model's own bounds.
  LpResult Solve();

  // Solves with overridden bounds for the structural variables (size must
  // equal model.num_vars()); used by branch and bound.
  LpResult Solve(std::span<const double> lower, std::span<const double> upper);

  // Same, seeding the initial basis from `warm`; falls back to the slack
  // basis if the snapshot does not fit this model.
  LpResult Solve(std::span<const double> lower, std::span<const double> upper,
                 const LpBasis* warm);

  // Snapshot of the final basis of the last Solve (valid after any Solve).
  LpBasis BasisSnapshot() const;

 private:
  enum class Status : uint8_t {
    kBasic,
    kAtLower,
    kAtUpper,
    kFreeZero,  // nonbasic free variable pinned at 0
  };

  struct ColEntry {
    int32_t row;
    double coeff;
  };

  // Column `var` of [A | I]: its nonzeros in ascending row order.
  std::span<const ColEntry> Column(int var) const {
    return {col_entries_.data() + col_start_[var],
            static_cast<size_t>(col_start_[var + 1] - col_start_[var])};
  }

  // Dense m x m basis inverse, row major.
  double& Binv(int i, int j) { return binv_[static_cast<size_t>(i) * m_ + j]; }

  void InstallBounds(std::span<const double> lower,
                     std::span<const double> upper);
  void InstallSlackBasis();
  bool InstallWarmBasis(const LpBasis& warm);
  void RefactorizeOrReset();       // rebuild binv_ from basis_, else slack basis
  void RecomputeBasicValues();     // x_B = B^-1 (b - A_N x_N)
  double ColumnDot(int var, std::span<const double> row_vec) const;
  void ComputeTableauColumn(int var, std::vector<double>& out) const;

  // Runs simplex iterations with objective `costs` (phase 1 or 2).
  // `phase1` enables the infeasibility-aware ratio test.
  LpStatus Iterate(std::span<const double> costs, bool phase1,
                   int* iterations_left);

  double TotalInfeasibility() const;
  void BuildPhase1Costs(std::vector<double>& costs) const;

  const MilpModel& model_;
  LpOptions options_;

  int n_ = 0;       // structural variables
  int m_ = 0;       // rows / slacks
  int total_ = 0;   // n_ + m_

  // Columns of [A | I] in CSC form: column v spans
  // col_entries_[col_start_[v], col_start_[v + 1]).
  std::vector<int64_t> col_start_;
  std::vector<ColEntry> col_entries_;
  std::vector<double> rhs_b_;

  // Per-variable working bounds (structural overrides + slack encodings).
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<double> obj_;  // phase-2 costs, structural + zero slacks

  // Simplex state.
  std::vector<int32_t> basic_;    // row -> var
  std::vector<Status> status_;    // var -> status
  std::vector<double> x_;         // var -> value
  std::vector<double> binv_;
  int pivots_since_refactor_ = 0;
  int pricing_cursor_ = 0;  // start of the current partial-pricing section

  // Scratch reused across Iterate / RecomputeBasicValues calls: contents
  // are rewritten before every use, only the allocations carry over.
  std::vector<double> y_;             // dual row c_B' B^-1
  std::vector<double> w_;             // tableau column B^-1 a_enter
  std::vector<double> phase1_costs_;  // phase-1 cost vector
  std::vector<double> residual_;      // b - A_N x_N
};

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_SIMPLEX_H_
