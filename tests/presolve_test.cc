// Tests for MILP presolve: correctness of reductions, solution restoration,
// and equivalence of solve results with presolve on and off.

#include <gtest/gtest.h>

#include "src/solver/milp.h"
#include "src/solver/presolve.h"
#include "tests/solver_models.h"

namespace tetrisched {
namespace {

TEST(PresolveTest, FixedVariableIsEliminated) {
  MilpModel model;
  VarId x = model.AddContinuousVar(2.0, 2.0, "x");  // fixed
  VarId y = model.AddContinuousVar(0.0, 10.0, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 1.0}, {y, 1.0}}, ConstraintSense::kLessEqual, 5.0);

  Presolver presolver(model);
  ASSERT_FALSE(presolver.infeasible());
  EXPECT_EQ(presolver.num_fixed_vars(), 1);
  EXPECT_EQ(presolver.reduced().num_vars(), 1);
  EXPECT_DOUBLE_EQ(presolver.objective_offset(), 2.0);
  // Folded and absorbed as a bound: y <= 3, row dropped.
  EXPECT_EQ(presolver.reduced().num_constraints(), 0);
  EXPECT_DOUBLE_EQ(presolver.reduced().upper_bound(0), 3.0);

  std::vector<double> restored = presolver.RestoreSolution(std::vector<double>{3.0});
  EXPECT_DOUBLE_EQ(restored[x], 2.0);
  EXPECT_DOUBLE_EQ(restored[y], 3.0);
}

TEST(PresolveTest, SingletonRowTightensBound) {
  MilpModel model;
  VarId x = model.AddContinuousVar(0.0, 100.0, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 2.0}}, ConstraintSense::kLessEqual, 10.0);

  Presolver presolver(model);
  ASSERT_FALSE(presolver.infeasible());
  EXPECT_EQ(presolver.num_dropped_rows(), 1);
  EXPECT_EQ(presolver.reduced().num_constraints(), 0);
  EXPECT_DOUBLE_EQ(presolver.reduced().upper_bound(0), 5.0);
}

TEST(PresolveTest, CulledIndicatorCascade) {
  // The compiler's culling pattern: I <= 0 fixes the binary to 0, which in
  // turn resolves the demand row sum(P) == 2*I into P == 0.
  MilpModel model;
  VarId i = model.AddBinaryVar("I");
  VarId p = model.AddIntegerVar(0, 4, "P");
  model.AddObjectiveTerm(i, 5.0);
  model.AddConstraint({{i, 1.0}}, ConstraintSense::kLessEqual, 0.0, "cull");
  model.AddConstraint({{p, 1.0}, {i, -2.0}}, ConstraintSense::kEqual, 0.0,
                      "demand");

  Presolver presolver(model);
  ASSERT_FALSE(presolver.infeasible());
  EXPECT_EQ(presolver.num_fixed_vars(), 2);
  EXPECT_EQ(presolver.reduced().num_vars(), 0);
  EXPECT_EQ(presolver.reduced().num_constraints(), 0);
  std::vector<double> restored = presolver.RestoreSolution({});
  EXPECT_DOUBLE_EQ(restored[i], 0.0);
  EXPECT_DOUBLE_EQ(restored[p], 0.0);
}

TEST(PresolveTest, IntegralBoundRounding) {
  MilpModel model;
  VarId x = model.AddIntegerVar(0, 10, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 2.0}}, ConstraintSense::kLessEqual, 7.0);

  Presolver presolver(model);
  EXPECT_DOUBLE_EQ(presolver.reduced().upper_bound(0), 3.0);  // floor(3.5)
}

TEST(PresolveTest, DetectsInfeasibleSingleton) {
  MilpModel model;
  VarId x = model.AddContinuousVar(0.0, 1.0, "x");
  model.AddConstraint({{x, 1.0}}, ConstraintSense::kGreaterEqual, 2.0);
  EXPECT_TRUE(Presolver(model).infeasible());
}

TEST(PresolveTest, DetectsInfeasibleFixedRow) {
  MilpModel model;
  VarId x = model.AddContinuousVar(3.0, 3.0, "x");
  model.AddConstraint({{x, 1.0}}, ConstraintSense::kEqual, 5.0);
  EXPECT_TRUE(Presolver(model).infeasible());
}

TEST(PresolveTest, ProjectionRejectsConflicts) {
  MilpModel model;
  VarId x = model.AddContinuousVar(1.0, 1.0, "x");
  VarId y = model.AddContinuousVar(0.0, 5.0, "y");
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 1.0}, {y, 1.0}}, ConstraintSense::kLessEqual, 4.0);

  Presolver presolver(model);
  std::vector<double> ok = presolver.ProjectSolution(std::vector<double>{1.0, 2.0});
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_DOUBLE_EQ(ok[0], 2.0);
  EXPECT_TRUE(presolver.ProjectSolution(std::vector<double>{0.0, 2.0}).empty());
}

// Property: random MILPs solve to the same optimum with and without
// presolve.
class PresolveEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PresolveEquivalenceTest, SameOptimum) {
  MilpModel model = RandomPresolveModel(4242 + GetParam());

  MilpOptions with;
  with.rel_gap = 0.0;
  with.enable_presolve = true;
  MilpOptions without = with;
  without.enable_presolve = false;

  MilpResult a = MilpSolver(model, with).Solve();
  MilpResult b = MilpSolver(model, without).Solve();
  ASSERT_EQ(a.HasSolution(), b.HasSolution()) << "seed " << GetParam();
  if (a.HasSolution()) {
    EXPECT_NEAR(a.objective, b.objective, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(model.IsFeasible(a.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, PresolveEquivalenceTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace tetrisched
