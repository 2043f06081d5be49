// Tests for the solver's component decomposition layer (solver/decompose.h,
// DESIGN.md §12).
//
// The contract under test: block-diagonal models split into their blocks and
// the stitched result matches the monolithic solve (exactly at rel_gap = 0,
// within the gap otherwise); single-component models take the bypass and are
// bit-identical to the monolithic search; the components are searched in
// turn on the calling thread, and a repeated solve gives the same result;
// presolve fixings sever couplings the raw model hides; and cross-component
// status merging is conservative.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/availability.h"
#include "src/cluster/cluster.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/span.h"
#include "src/compiler/compiler.h"
#include "src/solver/decompose.h"
#include "src/solver/milp.h"
#include "src/solver/presolve.h"
#include "src/strl/strl.h"
#include "tests/solver_models.h"

namespace tetrisched {
namespace {

TEST(DecomposeDetectTest, FindsBlockDiagonalComponents) {
  MilpModel model;
  AddDemandSupplyBlock(model, 4, 5.0);
  AddDemandSupplyBlock(model, 3, 3.0);
  AddDemandSupplyBlock(model, 5, 7.0);

  Decomposition decomp = DetectComponents(model);
  EXPECT_FALSE(decomp.bypass);
  ASSERT_EQ(decomp.num_components, 3);
  EXPECT_TRUE(decomp.Splits());
  EXPECT_EQ(decomp.component_vars[0], 8);
  EXPECT_EQ(decomp.component_vars[1], 6);
  EXPECT_EQ(decomp.component_vars[2], 10);
  EXPECT_EQ(decomp.component_rows[0], 5);   // 4 demand + 1 supply
  EXPECT_EQ(decomp.component_rows[1], 4);
  EXPECT_EQ(decomp.component_rows[2], 6);
  EXPECT_EQ(decomp.largest_component_vars(), 10);
  // Components are numbered in ascending first-variable order, and every
  // row lands in its first variable's component.
  for (int c = 0; c < model.num_constraints(); ++c) {
    EXPECT_EQ(decomp.row_component[c],
              decomp.var_component[model.constraint_terms(c)[0].var]);
  }
}

TEST(DecomposeDetectTest, FreeVariablesJoinNoComponent) {
  MilpModel model;
  VarId free_var = model.AddBinaryVar();  // e.g. the compiler's root indicator
  model.AddObjectiveTerm(free_var, 0.0);
  AddDemandSupplyBlock(model, 2, 3.0);

  Decomposition decomp = DetectComponents(model);
  EXPECT_EQ(decomp.num_components, 1);
  EXPECT_EQ(decomp.var_component[free_var], -1);
  EXPECT_FALSE(decomp.Splits());  // one row-induced component: bypass
}

TEST(DecomposeMergeTest, MilpStatusWorstClaimWins) {
  using S = MilpStatus;
  EXPECT_EQ(MergeMilpStatus(S::kOptimal, S::kOptimal), S::kOptimal);
  EXPECT_EQ(MergeMilpStatus(S::kOptimal, S::kGapLimit), S::kGapLimit);
  EXPECT_EQ(MergeMilpStatus(S::kGapLimit, S::kFeasible), S::kFeasible);
  EXPECT_EQ(MergeMilpStatus(S::kFeasible, S::kNoSolution), S::kNoSolution);
  EXPECT_EQ(MergeMilpStatus(S::kNoSolution, S::kUnbounded), S::kUnbounded);
  EXPECT_EQ(MergeMilpStatus(S::kOptimal, S::kInfeasible), S::kInfeasible);
  EXPECT_EQ(MergeMilpStatus(S::kInfeasible, S::kUnbounded), S::kInfeasible);
  // Order independence.
  EXPECT_EQ(MergeMilpStatus(S::kGapLimit, S::kOptimal), S::kGapLimit);
  EXPECT_EQ(MergeMilpStatus(S::kInfeasible, S::kOptimal), S::kInfeasible);
}

TEST(DecomposeMergeTest, NoIncumbentComponentDegradesOnlyItself) {
  using S = SolveStatus;
  // A failed component among successful ones -> partial plan (kTimeLimit),
  // never a full-cycle kNoIncumbent...
  EXPECT_EQ(MergeSolveStatus(S::kNoIncumbent, S::kOptimal), S::kTimeLimit);
  EXPECT_EQ(MergeSolveStatus(S::kOptimal, S::kNoIncumbent), S::kTimeLimit);
  EXPECT_EQ(MergeSolveStatus(S::kNoIncumbent, S::kGapMet), S::kTimeLimit);
  EXPECT_EQ(MergeSolveStatus(S::kStall, S::kNoIncumbent), S::kStall);
  // ...unless every component failed.
  EXPECT_EQ(MergeSolveStatus(S::kNoIncumbent, S::kNoIncumbent),
            S::kNoIncumbent);
  // Without failures the merge is the plain worst-of ladder.
  EXPECT_EQ(MergeSolveStatus(S::kOptimal, S::kOptimal), S::kOptimal);
  EXPECT_EQ(MergeSolveStatus(S::kOptimal, S::kGapMet), S::kGapMet);
  EXPECT_EQ(MergeSolveStatus(S::kGapMet, S::kTimeLimit), S::kTimeLimit);
}

TEST(SolverDecomposeTest, BlockDiagonalParityExactGap) {
  // Randomized block-diagonal instances: the stitched optimum must equal the
  // monolithic optimum exactly (rel_gap = 0 on both sides).
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(9100 + seed);
    const int blocks = 2 + static_cast<int>(rng.UniformInt(0, 3));
    MilpModel model;
    for (int b = 0; b < blocks; ++b) {
      AddRandomPackingBlock(model, rng,
                            8 + static_cast<int>(rng.UniformInt(0, 5)),
                            4 + static_cast<int>(rng.UniformInt(0, 4)));
    }

    MilpOptions options;
    options.rel_gap = 0.0;
    options.time_limit_seconds = 30.0;

    options.enable_decomposition = false;
    MilpResult mono = MilpSolver(model, options).Solve();
    options.enable_decomposition = true;
    MilpResult split = MilpSolver(model, options).Solve();

    ASSERT_TRUE(mono.HasSolution()) << "seed " << seed;
    ASSERT_TRUE(split.HasSolution()) << "seed " << seed;
    EXPECT_EQ(mono.components, 1) << "seed " << seed;
    EXPECT_GE(split.components, 2) << "seed " << seed;
    EXPECT_EQ(split.status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(split.objective, mono.objective, 1e-5) << "seed " << seed;
    EXPECT_TRUE(model.IsFeasible(split.values)) << "seed " << seed;
    EXPECT_GE(split.decompose_ms, 0.0);
    EXPECT_GT(split.max_component_ms, 0.0) << "seed " << seed;
  }
}

TEST(SolverDecomposeTest, BlockDiagonalParityWithinRelGap) {
  MilpModel model;
  AddDemandSupplyBlock(model, 12, 9.0);
  AddDemandSupplyBlock(model, 10, 7.0);
  AddDemandSupplyBlock(model, 14, 11.0);

  MilpOptions options;
  options.rel_gap = 0.10;
  options.time_limit_seconds = 30.0;

  options.enable_decomposition = false;
  MilpResult mono = MilpSolver(model, options).Solve();
  options.enable_decomposition = true;
  MilpResult split = MilpSolver(model, options).Solve();

  ASSERT_TRUE(mono.HasSolution());
  ASSERT_TRUE(split.HasSolution());
  EXPECT_EQ(split.components, 3);
  // Both incumbents are proven within rel_gap of the same optimum.
  double tolerance =
      options.rel_gap *
          std::max(std::abs(mono.objective), std::abs(split.objective)) +
      1e-6;
  EXPECT_NEAR(split.objective, mono.objective, tolerance);
  // The stitched bound stays a valid upper bound on the true optimum, which
  // the split incumbents reach within the gap.
  EXPECT_GE(split.best_bound, split.objective - 1e-6);
}

TEST(SolverDecomposeTest, SingleComponentBypassIsBitIdentical) {
  // One shared supply row couples every job: a single component. The bypass
  // must reproduce the monolithic search exactly — same node trace, same
  // LP iteration count, same incumbent vector, bit for bit.
  MilpModel model;
  AddDemandSupplyBlock(model, 24, 15.0);

  MilpOptions options;
  options.rel_gap = 0.0;
  options.time_limit_seconds = 30.0;

  options.enable_decomposition = false;
  MilpResult mono = MilpSolver(model, options).Solve();
  options.enable_decomposition = true;
  MilpResult bypass = MilpSolver(model, options).Solve();

  ASSERT_TRUE(mono.HasSolution());
  ASSERT_TRUE(bypass.HasSolution());
  EXPECT_EQ(bypass.components, 1);
  EXPECT_EQ(bypass.status, mono.status);
  EXPECT_EQ(bypass.solve_status, mono.solve_status);
  EXPECT_EQ(bypass.nodes, mono.nodes);
  EXPECT_EQ(bypass.lp_iterations, mono.lp_iterations);
  EXPECT_EQ(bypass.objective, mono.objective);
  EXPECT_EQ(bypass.best_bound, mono.best_bound);
  EXPECT_EQ(bypass.values, mono.values);
}

TEST(SolverDecomposeTest, SearchesComponentsInTurnOnCallingThread) {
  // The solver starts no thread: with default options a 4-block model's
  // components are searched one after another on the calling thread, and a
  // second solve repeats the first exactly.
  MilpModel blocks;
  Rng rng(9777);
  for (int b = 0; b < 4; ++b) {
    AddRandomPackingBlock(blocks, rng, 10, 5);
  }
  const MilpOptions options;

  const bool observability = ObservabilityEnabled();
  SetObservabilityEnabled(true);
  SpanCollector::Global().Clear();
  const MilpResult first = MilpSolver(blocks, options).Solve();
  SetObservabilityEnabled(observability);
  const std::vector<SpanRecord> spans = SpanCollector::Global().Snapshot();
  SpanCollector::Global().Clear();

  ASSERT_TRUE(first.HasSolution());
  EXPECT_EQ(first.components, 4);
  const uint32_t caller = span_internal::CurrentThreadId();
  int component_spans = 0;
  uint64_t previous_end_us = 0;
  for (const SpanRecord& span : spans) {
    if (std::string_view(span.name) != "solver.component") {
      continue;
    }
    ++component_spans;
    EXPECT_EQ(span.thread, caller) << "component " << component_spans;
    EXPECT_GE(span.start_us, previous_end_us)
        << "component " << component_spans;
    previous_end_us = span.start_us + span.duration_us;
  }
  EXPECT_EQ(component_spans, first.components);

  const MilpResult second = MilpSolver(blocks, options).Solve();
  EXPECT_EQ(second.components, first.components);
  EXPECT_EQ(second.nodes, first.nodes);
  EXPECT_EQ(second.lp_iterations, first.lp_iterations);
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_EQ(second.best_bound, first.best_bound);
  EXPECT_EQ(second.values, first.values);
}

TEST(SolverDecomposeTest, PresolveFixingSplitsCoupledBlocks) {
  // Two blocks coupled only through a variable z that appears in a row of
  // each — plus a singleton row pinning z to 0. The raw incidence graph is
  // one component; presolve fixes z, folds it out of both coupling rows,
  // and the reduced model splits in two.
  MilpModel model;
  AddDemandSupplyBlock(model, 3, 3.0);   // vars 0..5
  AddDemandSupplyBlock(model, 3, 3.0);   // vars 6..11
  VarId z = model.AddBinaryVar("z");
  model.AddConstraint({{0, 1.0}, {z, 1.0}}, ConstraintSense::kLessEqual, 2.0);
  model.AddConstraint({{6, 1.0}, {z, 1.0}}, ConstraintSense::kLessEqual, 2.0);
  model.AddConstraint({{z, 1.0}}, ConstraintSense::kLessEqual, 0.0);

  EXPECT_EQ(DetectComponents(model).num_components, 1);

  Presolver presolver(model);
  ASSERT_FALSE(presolver.infeasible());
  ASSERT_GT(presolver.num_fixed_vars(), 0);
  EXPECT_EQ(DetectComponents(presolver.reduced()).num_components, 2);

  // End to end: the full solve runs presolve first and must report the split.
  MilpOptions options;
  options.rel_gap = 0.0;
  options.time_limit_seconds = 30.0;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_EQ(result.components, 2);
  EXPECT_NEAR(result.objective, 2.0, 1e-6);  // one job per block (supply 3)
  EXPECT_TRUE(model.IsFeasible(result.values));
}

TEST(SolverDecomposeTest, InfeasibleComponentPoisonsWholeModel) {
  MilpModel model;
  AddDemandSupplyBlock(model, 3, 3.0);
  // Second "block": a binary squeezed into the empty interval [0.6, 0.4].
  VarId x = model.AddBinaryVar("x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1.0}}, ConstraintSense::kGreaterEqual, 0.6);
  model.AddConstraint({{x, 1.0}}, ConstraintSense::kLessEqual, 0.4);

  MilpOptions options;
  options.rel_gap = 0.0;
  options.time_limit_seconds = 30.0;
  options.enable_presolve = false;  // keep the contradiction for the solver

  MilpResult result = MilpSolver(model, options).Solve();
  EXPECT_GE(result.components, 2);
  EXPECT_EQ(result.status, MilpStatus::kInfeasible);
  EXPECT_EQ(result.solve_status, SolveStatus::kNoIncumbent);
  EXPECT_FALSE(result.HasSolution());
}

TEST(SolverDecomposeTest, WarmStartSlicesAcrossComponents) {
  MilpModel model;
  AddDemandSupplyBlock(model, 8, 5.0);
  AddDemandSupplyBlock(model, 8, 5.0);

  MilpOptions options;
  options.rel_gap = 0.0;
  options.time_limit_seconds = 30.0;

  MilpResult cold = MilpSolver(model, options).Solve();
  ASSERT_TRUE(cold.HasSolution());
  EXPECT_EQ(cold.components, 2);
  // Re-solving warm-started from the optimum must reproduce it.
  MilpResult warm = MilpSolver(model, options).Solve(cold.values);
  ASSERT_TRUE(warm.HasSolution());
  EXPECT_EQ(warm.components, 2);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
}

TEST(SolverDecomposeTest, CompiledAggregateSplitsAcrossDisjointRacks) {
  // Two jobs pinned to different racks never touch a common supply row;
  // with the top-level SUM compiled ungated, the cycle MILP splits and each
  // job's variables (CompiledStrl::LeafVars) land in one component.
  Cluster cluster = MakeUniformCluster(2, 3, 0);
  TimeGrid grid{.start = 0, .quantum = 10, .num_slices = 4};
  AvailabilityGrid avail(cluster, grid);

  StrlExpr root = Sum({NCk(cluster.RackPartitions(0), 2, 0, 10, 1.0, 1),
                       NCk(cluster.RackPartitions(1), 2, 0, 10, 2.0, 2)});
  CompiledStrl compiled = StrlCompiler(avail).Compile(root);

  Decomposition decomp = DetectComponents(compiled.model());
  EXPECT_EQ(decomp.num_components, 2);
  for (int leaf = 0; leaf < compiled.num_leaves(); ++leaf) {
    std::vector<VarId> vars = compiled.LeafVars(leaf);
    ASSERT_FALSE(vars.empty());
    const int32_t component = decomp.var_component[vars[0]];
    EXPECT_GE(component, 0) << "leaf " << leaf;
    for (VarId v : vars) {
      EXPECT_EQ(decomp.var_component[v], component) << "leaf " << leaf;
    }
  }

  // The two leaves map to *different* components, and the solved schedule
  // still grants both jobs.
  EXPECT_NE(decomp.var_component[compiled.LeafVars(0)[0]],
            decomp.var_component[compiled.LeafVars(1)[0]]);
  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(compiled.model(), options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 3.0, 1e-6);
  EXPECT_EQ(compiled.ExtractAllocations(result.values).size(), 2u);
}

}  // namespace
}  // namespace tetrisched
