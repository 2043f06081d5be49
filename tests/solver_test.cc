// Unit and property tests for the LP simplex and MILP branch-and-bound.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/solver/certify.h"
#include "src/solver/milp.h"
#include "src/solver/model.h"
#include "src/solver/simplex.h"
#include "tests/solver_models.h"

namespace tetrisched {
namespace {

TEST(LpSolverTest, SimpleTwoVarMax) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> x=4, y=0, obj=12.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 3.0);
  model.AddObjectiveTerm(y, 2.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 4);
  model.AddConstraint({{x, 1}, {y, 3}}, ConstraintSense::kLessEqual, 6);

  LpSolver solver(model);
  LpResult result = solver.Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 12.0, 1e-6);
  EXPECT_NEAR(result.values[x], 4.0, 1e-6);
  EXPECT_NEAR(result.values[y], 0.0, 1e-6);
}

TEST(LpSolverTest, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj=8/3.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 2}, {y, 1}}, ConstraintSense::kLessEqual, 4);
  model.AddConstraint({{x, 1}, {y, 2}}, ConstraintSense::kLessEqual, 4);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 8.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.values[x], 4.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.values[y], 4.0 / 3.0, 1e-6);
}

TEST(LpSolverTest, UpperBoundsRespected) {
  // max x + y with x <= 1.5, y <= 2.5 and x + y <= 3 -> obj = 3.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, 1.5, "x");
  VarId y = model.AddContinuousVar(0, 2.5, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 3);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 3.0, 1e-6);
  EXPECT_LE(result.values[x], 1.5 + 1e-9);
  EXPECT_LE(result.values[y], 2.5 + 1e-9);
}

TEST(LpSolverTest, EqualityConstraintNeedsPhase1) {
  // max x + 2y s.t. x + y == 5, y <= 3 -> x=2, y=3, obj=8.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, 3, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 2.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kEqual, 5);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 8.0, 1e-6);
  EXPECT_NEAR(result.values[x], 2.0, 1e-6);
  EXPECT_NEAR(result.values[y], 3.0, 1e-6);
}

TEST(LpSolverTest, GreaterEqualConstraint) {
  // max -x (i.e. minimize x) s.t. x >= 2 -> x=2.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  model.AddObjectiveTerm(x, -1.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kGreaterEqual, 2);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.values[x], 2.0, 1e-6);
  EXPECT_NEAR(result.objective, -2.0, 1e-6);
}

TEST(LpSolverTest, DetectsInfeasible) {
  MilpModel model;
  VarId x = model.AddContinuousVar(0, 1, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kGreaterEqual, 2);

  LpResult result = LpSolver(model).Solve();
  EXPECT_EQ(result.status, LpStatus::kInfeasible);
}

TEST(LpSolverTest, DetectsUnbounded) {
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1}, {y, -1}}, ConstraintSense::kLessEqual, 1);

  LpResult result = LpSolver(model).Solve();
  EXPECT_EQ(result.status, LpStatus::kUnbounded);
}

TEST(LpSolverTest, FreeVariable) {
  // max -|x| style: max -x + y, y <= 2, x >= -3 (free var with negative lb)
  // x + y <= 1 -> push x to -3, y to 2? x + y = -1 <= 1 ok. obj = 3 + 2 = 5.
  MilpModel model;
  VarId x = model.AddContinuousVar(-3, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, 2, "y");
  model.AddObjectiveTerm(x, -1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 1);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 5.0, 1e-6);
}

TEST(LpSolverTest, DuplicateTermsAreSummed) {
  // x appears twice with coeff 0.5 each -> effectively x <= 3.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 0.5}, {x, 0.5}}, ConstraintSense::kLessEqual, 3);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.values[x], 3.0, 1e-6);
}

// A variable mentioned twice in one row is one column entry with the summed
// coefficient: `x + x <= 4` solves exactly like `2x <= 4`.
TEST(LpSolverTest, DuplicateMentionSolvesAsMergedCoefficient) {
  auto solve = [](std::vector<LinTerm> terms) {
    MilpModel model;
    VarId x = model.AddContinuousVar(0, kInfinity, "x");
    VarId y = model.AddContinuousVar(0, 1, "y");
    model.AddObjectiveTerm(x, 1.0);
    model.AddObjectiveTerm(y, 1.0);
    for (LinTerm& term : terms) {
      term.var = term.var == 0 ? x : y;
    }
    model.AddConstraint(std::move(terms), ConstraintSense::kLessEqual, 4);
    model.AddConstraint({{y, 1.0}, {x, 1.0}}, ConstraintSense::kLessEqual, 3);
    return LpSolver(model).Solve();
  };
  LpResult duplicated = solve({{0, 1.0}, {1, 0.0}, {0, 1.0}});
  LpResult merged = solve({{0, 2.0}, {1, 0.0}});
  ASSERT_EQ(duplicated.status, LpStatus::kOptimal);
  ASSERT_EQ(merged.status, LpStatus::kOptimal);
  EXPECT_EQ(duplicated.iterations, merged.iterations);
  EXPECT_EQ(duplicated.objective, merged.objective);
  EXPECT_EQ(duplicated.values, merged.values);
  EXPECT_NEAR(duplicated.values[0], 2.0, 1e-9);
  EXPECT_NEAR(duplicated.objective, 3.0, 1e-9);
}

TEST(LpSolverTest, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  for (int i = 0; i < 20; ++i) {
    model.AddConstraint({{x, 1.0 + 0.0 * i}, {y, 1.0}},
                        ConstraintSense::kLessEqual, 2);
  }
  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-6);
}

// Random packing LP: `<=` rows, each mentioning a variable with probability
// 0.2, over variables in [0, inf). No variable has an upper bound, so the
// simplex never flips a bound: every iteration but the last is a pivot.
MilpModel SparsePackingLp(int num_vars, int num_rows, uint64_t seed) {
  Rng rng(seed);
  MilpModel model;
  for (int v = 0; v < num_vars; ++v) {
    model.AddContinuousVar(0.0, kInfinity);
    model.AddObjectiveTerm(v, rng.UniformReal(1.0, 10.0));
  }
  for (int r = 0; r < num_rows; ++r) {
    std::vector<LinTerm> terms;
    for (int v = 0; v < num_vars; ++v) {
      if (rng.Bernoulli(0.2)) {
        terms.push_back({v, rng.UniformReal(0.1, 4.0)});
      }
    }
    model.AddConstraint(std::move(terms), ConstraintSense::kLessEqual,
                        rng.UniformReal(1.0, 10.0));
  }
  return model;
}

std::vector<double> LowerBounds(const MilpModel& model) {
  std::vector<double> lower(model.num_vars());
  for (int v = 0; v < model.num_vars(); ++v) {
    lower[v] = model.lower_bound(v);
  }
  return lower;
}

std::vector<double> UpperBounds(const MilpModel& model) {
  std::vector<double> upper(model.num_vars());
  for (int v = 0; v < model.num_vars(); ++v) {
    upper[v] = model.upper_bound(v);
  }
  return upper;
}

TEST(LpSolverTest, WarmOptimalBasisNeedsNoPivot) {
  MilpModel model = SparsePackingLp(60, 40, 1);
  std::vector<double> lower = LowerBounds(model);
  std::vector<double> upper = UpperBounds(model);
  LpSolver solver(model);
  LpResult cold = solver.Solve(lower, upper);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_GT(cold.iterations, 1);
  LpBasis basis = solver.BasisSnapshot();

  // The pricing pass that proves optimality pivots nothing and counts no
  // iteration.
  LpResult warm = solver.Solve(lower, upper, &basis);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.values.size(), cold.values.size());
  for (size_t v = 0; v < cold.values.size(); ++v) {
    EXPECT_NEAR(warm.values[v], cold.values[v], 1e-9) << "var " << v;
  }
}

TEST(LpSolverTest, WarmBasisWithTightenedBoundReachesColdObjective) {
  MilpModel model = SparsePackingLp(60, 40, 5);
  std::vector<double> lower = LowerBounds(model);
  std::vector<double> upper = UpperBounds(model);
  LpSolver solver(model);
  LpResult parent = solver.Solve(lower, upper);
  ASSERT_EQ(parent.status, LpStatus::kOptimal);
  LpBasis basis = solver.BasisSnapshot();

  // Halve the upper bound of the largest positive variable: the parent
  // basis turns primal infeasible, as after a branching decision.
  int var = static_cast<int>(
      std::max_element(parent.values.begin(), parent.values.end()) -
      parent.values.begin());
  ASSERT_GT(parent.values[var], 1e-6);
  upper[var] = parent.values[var] / 2;

  LpResult warm = solver.Solve(lower, upper, &basis);
  LpResult cold = LpSolver(model).Solve(lower, upper);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_LT(warm.objective, parent.objective);
  EXPECT_LE(warm.values[var], upper[var] + 1e-9);
}

TEST(LpSolverTest, SingularWarmBasisFallsBackToSlackBasis) {
  // x1 and x2 have identical columns, so a basis holding both is singular.
  MilpModel model;
  VarId x1 = model.AddContinuousVar(0, 5, "x1");
  VarId x2 = model.AddContinuousVar(0, 5, "x2");
  VarId y = model.AddContinuousVar(0, 5, "y");
  model.AddObjectiveTerm(x1, 1.0);
  model.AddObjectiveTerm(x2, 2.0);
  model.AddObjectiveTerm(y, 1.5);
  model.AddConstraint({{x1, 1}, {x2, 1}, {y, 2}}, ConstraintSense::kLessEqual,
                      6);
  model.AddConstraint({{x1, 2}, {x2, 2}, {y, 1}}, ConstraintSense::kLessEqual,
                      8);
  LpSolver solver(model);
  LpResult cold = solver.Solve();
  ASSERT_EQ(cold.status, LpStatus::kOptimal);

  LpBasis singular = solver.BasisSnapshot();
  singular.basic = {x1, x2};
  LpResult warm =
      solver.Solve(LowerBounds(model), UpperBounds(model), &singular);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

TEST(LpSolverTest, ReinvertedBasisKeepsTheOptimum) {
  // 427 pivots: the basis is reinverted after pivots 150 and 300. The
  // objective was recorded from the dense explicit-inverse solver this one
  // replaced.
  MilpModel model = SparsePackingLp(300, 200, 1);
  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_GT(result.iterations, 301);
  EXPECT_NEAR(result.objective, 57.26532709909069, 1e-9);
  EXPECT_TRUE(model.IsFeasible(result.values, 1e-6));
}

TEST(LpSolverTest, ExpiredDeadlineCancelsReinversion) {
  MilpModel model = SparsePackingLp(60, 40, 7);
  std::vector<double> lower = LowerBounds(model);
  std::vector<double> upper = UpperBounds(model);
  LpSolver solver(model);
  ASSERT_EQ(solver.Solve(lower, upper).status, LpStatus::kOptimal);
  LpBasis basis = solver.BasisSnapshot();

  LpOptions options;
  options.deadline = Deadline(Deadline::Clock::now() - std::chrono::seconds(1));
  LpResult result = LpSolver(model, options).Solve(lower, upper, &basis);
  EXPECT_EQ(result.status, LpStatus::kCancelled);
  EXPECT_TRUE(result.values.empty());
  EXPECT_EQ(result.iterations, 0);
}

TEST(MilpSolverTest, Knapsack) {
  // values {10,13,7}, weights {3,4,2}, cap 6 -> best {13,7} = 20.
  MilpModel model;
  std::vector<VarId> pick;
  const double values[] = {10, 13, 7};
  const double weights[] = {3, 4, 2};
  std::vector<LinTerm> row;
  for (int i = 0; i < 3; ++i) {
    VarId v = model.AddBinaryVar("pick" + std::to_string(i));
    model.AddObjectiveTerm(v, values[i]);
    row.push_back({v, weights[i]});
    pick.push_back(v);
  }
  model.AddConstraint(row, ConstraintSense::kLessEqual, 6);

  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_EQ(result.solve_status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.objective, 20.0, 1e-6);
  EXPECT_NEAR(result.values[pick[0]], 0.0, 1e-6);
  EXPECT_NEAR(result.values[pick[1]], 1.0, 1e-6);
  EXPECT_NEAR(result.values[pick[2]], 1.0, 1e-6);
}

TEST(MilpSolverTest, IntegerVariableRounding) {
  // max x s.t. 2x <= 7, x integer -> x = 3.
  MilpModel model;
  VarId x = model.AddIntegerVar(0, kInfinity, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 2}}, ConstraintSense::kLessEqual, 7);

  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 3.0, 1e-6);
}

TEST(MilpSolverTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x binary -> infeasible.
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kGreaterEqual, 0.4);
  model.AddConstraint({{x, 1}}, ConstraintSense::kLessEqual, 0.6);

  MilpResult result = MilpSolver(model).Solve();
  EXPECT_EQ(result.solve_status, SolveStatus::kInfeasible);
}

// An LP point within the integrality tolerance whose rounding fails the
// incumbent check must still be branched on, not closed: the root LP puts x
// at 3.0000004, and x = 3 misses the row by 4e-4.
TEST(MilpSolverTest, IntegralLookingPointIsBranchedOn) {
  MilpModel model;
  VarId x = model.AddIntegerVar(0, 10, "x");
  VarId y = model.AddContinuousVar(0, 1e-4, "y");
  model.AddObjectiveTerm(x, -1.0);
  model.AddConstraint({{x, 1000.0}, {y, 1.0}}, ConstraintSense::kGreaterEqual,
                      3000.0005);

  MilpOptions options;
  MilpResult result = MilpSolver(model, options).Solve();
  EXPECT_EQ(result.solve_status, SolveStatus::kOptimal)
      << ToString(result.solve_status);
  CertifyReport report = CertifyPlan(model, result, options);
  EXPECT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[x], 4.0);
  EXPECT_EQ(result.objective, -4.0);
}

TEST(MilpSolverTest, WarmStartAccepted) {
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  VarId y = model.AddBinaryVar("y");
  model.AddObjectiveTerm(x, 2.0);
  model.AddObjectiveTerm(y, 3.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 1);

  std::vector<double> warm = {1.0, 0.0};  // feasible but suboptimal
  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve(warm);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 3.0, 1e-6);  // improves past the warm start
}

TEST(MilpSolverTest, GapLimitStopsEarly) {
  // A problem with optimum 100; an incumbent of >= 91 satisfies a 10% gap.
  MilpModel model;
  std::vector<LinTerm> row;
  for (int i = 0; i < 10; ++i) {
    VarId v = model.AddBinaryVar("v" + std::to_string(i));
    model.AddObjectiveTerm(v, 10.0);
    row.push_back({v, 1.0});
  }
  model.AddConstraint(row, ConstraintSense::kLessEqual, 10);

  MilpOptions options;
  options.rel_gap = 0.10;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_GE(result.objective, 90.0 - 1e-6);
}

TEST(MilpSolverTest, RepeatSolveIsDeterministic) {
  MilpModel model;
  AddDemandSupplyBlock(model, 32, 18.0);
  MilpOptions options;
  options.rel_gap = 0.0;

  MilpResult first = MilpSolver(model, options).Solve();
  MilpResult second = MilpSolver(model, options).Solve();
  ASSERT_TRUE(first.HasSolution());
  ASSERT_TRUE(second.HasSolution());
  EXPECT_NEAR(first.objective, 9.0, 1e-6);  // floor(18 / 2)
  EXPECT_EQ(first.nodes, second.nodes);
  EXPECT_EQ(first.lp_iterations, second.lp_iterations);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.best_bound, second.best_bound);
  EXPECT_EQ(first.values, second.values);
}

TEST(MilpSolverTest, RespectsTimeLimit) {
  // Symmetric knapsack: 40 identical items, odd capacity. The LP bound stays
  // at 10.5 while the integer optimum is 10, so a zero-gap search can never
  // close and must run until the clock stops it.
  MilpModel model;
  std::vector<LinTerm> row;
  for (int i = 0; i < 40; ++i) {
    VarId v = model.AddBinaryVar();
    model.AddObjectiveTerm(v, 1.0);
    row.push_back({v, 2.0});
  }
  model.AddConstraint(std::move(row), ConstraintSense::kLessEqual, 21.0);

  MilpOptions options;
  options.rel_gap = 0.0;
  options.abs_gap = 0.0;
  options.max_nodes = 100000000;
  options.stall_node_limit = 0;
  options.enable_presolve = false;
  options.time_limit_seconds = 0.3;

  MilpResult result = MilpSolver(model, options).Solve();
  // The zero incumbent guarantees a solution even on timeout...
  ASSERT_TRUE(result.HasSolution());
  EXPECT_TRUE(result.solve_status == SolveStatus::kTimeLimit ||
              result.solve_status == SolveStatus::kNoIncumbent)
      << ToString(result.solve_status);
  EXPECT_GE(result.best_bound, result.objective);
  // ...and the search must notice the deadline within one LP solve.
  EXPECT_LE(result.solve_seconds, 2.0);
}

// Property test: whatever limit ends a search, the reported bound never
// sits below the incumbent and the result passes the independent certifier
// (which also audits any optimality or gap claim against that bound).
TEST(MilpSolverTest, BoundNeverBelowIncumbent) {
  int solves = 0;
  int failures = 0;
  std::string first_failure;
  for (int seed = 0; seed < 400; ++seed) {
    Rng rng(8800 + seed);
    MilpModel model;
    AddRandomPackingBlock(model, rng, static_cast<int>(rng.UniformInt(10, 29)),
                          static_cast<int>(rng.UniformInt(4, 11)));
    for (int max_nodes : {2, 5, 20, 1000000}) {
      for (double rel_gap : {0.0, 0.1}) {
        MilpOptions options;
        options.max_nodes = max_nodes;
        options.rel_gap = rel_gap;
        options.time_limit_seconds = 60.0;
        MilpResult result = MilpSolver(model, options).Solve();
        if (!result.HasSolution()) {
          continue;
        }
        ++solves;
        const CertifyReport report = CertifyPlan(model, result, options);
        if (result.best_bound < result.objective - options.abs_gap ||
            !report.ok) {
          if (failures++ == 0) {
            first_failure = "seed " + std::to_string(seed) + " max_nodes " +
                            std::to_string(max_nodes) + " rel_gap " +
                            std::to_string(rel_gap) + ": bound " +
                            std::to_string(result.best_bound) +
                            " objective " + std::to_string(result.objective) +
                            " certifier: " + report.failure;
          }
        }
      }
    }
  }
  EXPECT_EQ(solves, 400 * 8);
  EXPECT_EQ(failures, 0) << "first: " << first_failure;
}

// Property test: on random small MILPs, branch-and-bound must match
// exhaustive enumeration of the binary assignments.
class MilpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomTest, MatchesBruteForce) {
  Rng rng(1234 + GetParam());
  const int num_vars = static_cast<int>(rng.UniformInt(2, 8));
  const int num_cons = static_cast<int>(rng.UniformInt(1, 6));

  MilpModel model;
  std::vector<double> objective(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    model.AddBinaryVar("b" + std::to_string(v));
    objective[v] = rng.UniformReal(-5.0, 10.0);
    model.AddObjectiveTerm(v, objective[v]);
  }
  struct Row {
    std::vector<double> coeffs;
    ConstraintSense sense;
    double rhs;
  };
  std::vector<Row> rows;
  for (int c = 0; c < num_cons; ++c) {
    Row row;
    row.coeffs.resize(num_vars);
    std::vector<LinTerm> terms;
    for (int v = 0; v < num_vars; ++v) {
      row.coeffs[v] = rng.Bernoulli(0.6) ? rng.UniformReal(-3.0, 5.0) : 0.0;
      if (row.coeffs[v] != 0.0) {
        terms.push_back({v, row.coeffs[v]});
      }
    }
    row.sense = ConstraintSense::kLessEqual;
    row.rhs = rng.UniformReal(0.0, 6.0);
    rows.push_back(row);
    if (!terms.empty()) {
      model.AddConstraint(terms, row.sense, row.rhs);
    }
  }

  // Brute force over all 2^n assignments.
  double best = -kInfinity;
  for (int mask = 0; mask < (1 << num_vars); ++mask) {
    bool feasible = true;
    for (const Row& row : rows) {
      double lhs = 0.0;
      for (int v = 0; v < num_vars; ++v) {
        if (mask & (1 << v)) {
          lhs += row.coeffs[v];
        }
      }
      if (lhs > row.rhs + 1e-9) {
        feasible = false;
        break;
      }
    }
    if (!feasible) {
      continue;
    }
    double obj = 0.0;
    for (int v = 0; v < num_vars; ++v) {
      if (mask & (1 << v)) {
        obj += objective[v];
      }
    }
    best = std::max(best, obj);
  }

  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve();
  if (best == -kInfinity) {
    EXPECT_EQ(result.solve_status, SolveStatus::kInfeasible);
  } else {
    ASSERT_TRUE(result.HasSolution()) << "seed " << GetParam();
    EXPECT_EQ(result.solve_status, SolveStatus::kOptimal)
        << "seed " << GetParam();
    EXPECT_NEAR(result.objective, best, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(model.IsFeasible(result.values));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MilpRandomTest,
                         ::testing::Range(0, 40));

// Property test: random LPs where x=0 is feasible must report an objective
// at least 0 and a feasible solution.
class LpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LpRandomTest, FeasibleAndBoundConsistent) {
  Rng rng(99 + GetParam());
  const int num_vars = static_cast<int>(rng.UniformInt(2, 12));
  const int num_cons = static_cast<int>(rng.UniformInt(1, 10));

  MilpModel model;
  for (int v = 0; v < num_vars; ++v) {
    model.AddContinuousVar(0.0, rng.UniformReal(0.5, 4.0));
    model.AddObjectiveTerm(v, rng.UniformReal(-2.0, 5.0));
  }
  for (int c = 0; c < num_cons; ++c) {
    std::vector<LinTerm> terms;
    for (int v = 0; v < num_vars; ++v) {
      if (rng.Bernoulli(0.5)) {
        terms.push_back({v, rng.UniformReal(0.1, 3.0)});
      }
    }
    if (!terms.empty()) {
      model.AddConstraint(terms, ConstraintSense::kLessEqual,
                          rng.UniformReal(0.5, 8.0));
    }
  }

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal) << "seed " << GetParam();
  EXPECT_GE(result.objective, -1e-9);
  EXPECT_TRUE(model.IsFeasible(result.values, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LpRandomTest,
                         ::testing::Range(0, 40));

// Search trajectories pinned node for node (the search runs on the calling
// thread, so node order is deterministic). Storage and allocation work in
// the LP and presolve must leave every pivot and node as it was, so a change
// to the reduced models, the pivot sequence or the tree fails here even when
// the optimum holds.
struct PinnedSolve {
  int nodes;
  long lp_iterations;
  double objective;
};

void ExpectPinned(const MilpModel& model, const MilpOptions& options,
                  const PinnedSolve& pinned, const std::string& label) {
  MilpResult result = MilpSolver(model, options).Solve();
  EXPECT_EQ(result.nodes, pinned.nodes) << label;
  EXPECT_EQ(result.lp_iterations, pinned.lp_iterations) << label;
  EXPECT_EQ(result.objective, pinned.objective) << label;
}

// PresolveEquivalenceTest's models (presolve_test), seeds 4242 + 0..29,
// solved to a zero gap with presolve on and off.
TEST(PinnedTrajectoryTest, PresolveEquivalenceModels) {
  const PinnedSolve with_presolve[30] = {
      {1, 5, 10.66388291367535},      // seed 0
      {3, 9, 12.987321063146542},     // seed 1
      {2, 2, 9.6186953718645558},     // seed 2
      {1, 2, 7.7632126661666607},     // seed 3
      {1, 0, 0},                      // seed 4
      {0, 0, 0},                      // seed 5
      {1, 4, 12.340967553656185},     // seed 6
      {1, 4, 14.754951126817677},     // seed 7
      {1, 7, 13.588098839466316},     // seed 8
      {0, 0, 0},                      // seed 9
      {3, 8, 7.7032812782295563},     // seed 10
      {3, 6, 4.4993250920656749},     // seed 11
      {5, 6, -0.11844202750921218},   // seed 12
      {1, 1, 0},                      // seed 13
      {7, 10, 0.55933102635924303},   // seed 14
      {1, 1, 1.8338097071211108},     // seed 15
      {1, 0, 0},                      // seed 16
      {1, 3, 19.600027266855559},     // seed 17
      {0, 0, 0},                      // seed 18
      {1, 1, 4.8693398484274679},     // seed 19
      {5, 9, -3.2070730681151987},    // seed 20
      {5, 11, 8.301263774849879},     // seed 21
      {1, 3, 9.9041758816640986},     // seed 22
      {1, 3, 9.9753620538269878},     // seed 23
      {1, 4, 9.4420976739058169},     // seed 24
      {0, 0, 0},                      // seed 25
      {1, 2, 1.32441319647819},       // seed 26
      {5, 13, 5.774904796384785},     // seed 27
      {0, 0, 0},                      // seed 28
      {1, 1, 3.1172362338040305},     // seed 29
  };
  const PinnedSolve without_presolve[30] = {
      {1, 5, 10.66388291367535},      // seed 0
      {3, 9, 12.987321063146542},     // seed 1
      {1, 2, 9.6186953718645558},     // seed 2
      {1, 2, 7.7632126661666607},     // seed 3
      {1, 0, 0},                      // seed 4
      {1, 0, 0},                      // seed 5
      {1, 4, 12.340967553656185},     // seed 6
      {3, 7, 14.754951126817677},     // seed 7
      {1, 7, 13.588098839466316},     // seed 8
      {2, 0, 0},                      // seed 9
      {3, 8, 7.7032812782295563},     // seed 10
      {3, 6, 4.4993250920656749},     // seed 11
      {5, 6, -0.11844202750921218},   // seed 12
      {1, 1, 0},                      // seed 13
      {7, 10, 0.55933102635924303},   // seed 14
      {1, 1, 1.8338097071211108},     // seed 15
      {1, 0, 0},                      // seed 16
      {1, 3, 19.600027266855559},     // seed 17
      {1, 1, 0},                      // seed 18
      {1, 1, 4.8693398484274679},     // seed 19
      {5, 9, -3.2070730681151987},    // seed 20
      {5, 11, 8.301263774849879},     // seed 21
      {2, 2, 9.9041758816640986},     // seed 22
      {2, 3, 9.9753620538269878},     // seed 23
      {5, 10, 9.4420976739058169},    // seed 24
      {1, 1, 0},                      // seed 25
      {1, 2, 1.32441319647819},       // seed 26
      {5, 13, 5.774904796384785},     // seed 27
      {1, 2, 0},                      // seed 28
      {1, 1, 3.1172362338040305},     // seed 29
  };
  for (int seed = 0; seed < 30; ++seed) {
    MilpModel model = RandomPresolveModel(4242 + seed);
    MilpOptions options;
    options.rel_gap = 0.0;
    ExpectPinned(model, options, with_presolve[seed],
                 "presolve seed " + std::to_string(seed));
    options.enable_presolve = false;
    ExpectPinned(model, options, without_presolve[seed],
                 "no-presolve seed " + std::to_string(seed));
  }
}

// The micro_solver 6-block packing model at its default 10% gap: split into
// components, and as one monolithic search cut at 2,000 nodes.
TEST(PinnedTrajectoryTest, SixBlockModel) {
  MilpModel model = BlockPackingModel(6, 14, 7, 42);
  MilpOptions options;
  options.time_limit_seconds = 60.0;
  ExpectPinned(model, options, {183, 1121, 85.535515432745868}, "decomposed");
  options.enable_decomposition = false;
  options.max_nodes = 2000;
  ExpectPinned(model, options, {2000, 26392, 0}, "monolithic");
}

TEST(MilpModelTest, FeasibilityChecker) {
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  VarId y = model.AddContinuousVar(0, 2, "y");
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 2);

  EXPECT_TRUE(model.IsFeasible(std::vector<double>{1.0, 1.0}));
  EXPECT_FALSE(model.IsFeasible(std::vector<double>{0.5, 1.0}));  // frac bin
  EXPECT_FALSE(model.IsFeasible(std::vector<double>{1.0, 1.5}));  // row viol
  EXPECT_FALSE(model.IsFeasible(std::vector<double>{1.0, 3.0}));  // bound
}

TEST(MilpModelTest, DebugStringMentionsPieces) {
  MilpModel model;
  VarId x = model.AddBinaryVar("choose");
  model.AddObjectiveTerm(x, 4.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kLessEqual, 1, "cap");
  std::string dump = model.DebugString();
  EXPECT_NE(dump.find("maximize"), std::string::npos);
  EXPECT_NE(dump.find("cap"), std::string::npos);
  EXPECT_NE(dump.find("choose"), std::string::npos);
}

}  // namespace
}  // namespace tetrisched
