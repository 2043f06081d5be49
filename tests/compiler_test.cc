// Tests for the STRL -> MILP compiler, including the paper's worked example
// (§5.1 / Fig 4) reproduced end to end through the solver.

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/availability.h"
#include "src/common/rng.h"
#include "src/cluster/cluster.h"
#include "src/compiler/compiler.h"
#include "src/solver/milp.h"
#include "src/strl/strl.h"

namespace tetrisched {
namespace {

// Helper: solve a compiled STRL to (near-)optimality.
MilpResult SolveCompiled(const CompiledStrl& compiled,
                         std::span<const double> warm = {}) {
  MilpOptions options;
  options.rel_gap = 0.0;
  return MilpSolver(compiled.model(), options).Solve(warm);
}

// Converts extracted allocations into LeafGrants for the STRL evaluator.
LeafGrants ToGrants(const std::vector<StrlAllocation>& allocations) {
  LeafGrants grants;
  for (const StrlAllocation& alloc : allocations) {
    for (const auto& [partition, count] : alloc.counts) {
      grants[alloc.tag][partition] += count;
    }
  }
  return grants;
}

class CompilerTest : public ::testing::Test {
 protected:
  // One rack of 3 identical machines (the paper's §5.1 example cluster);
  // 10-second quanta, 4 slices: times 0, 10, 20, 30.
  CompilerTest()
      : cluster_(MakeUniformCluster(1, 3, 0)),
        grid_{.start = 0, .quantum = 10, .num_slices = 4},
        avail_(cluster_, grid_) {}

  Cluster cluster_;
  TimeGrid grid_;
  AvailabilityGrid avail_;
};

TEST_F(CompilerTest, SingleLeafCompilesAndSolves) {
  StrlExpr root = NCk(cluster_.AllPartitions(), 2, 0, 10, 1.0, 1);
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 1.0, 1e-6);

  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].tag, 1);
  EXPECT_EQ(allocations[0].total_nodes(), 2);
  EXPECT_EQ(allocations[0].start, 0);
  EXPECT_EQ(allocations[0].duration, 10);
}

TEST_F(CompilerTest, InfeasibleLeafIsCulled) {
  // Asks for 5 machines on a 3-machine cluster: indicator must pin to 0.
  StrlExpr root = NCk(cluster_.AllPartitions(), 5, 0, 10, 1.0, 1);
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 0.0, 1e-6);
  EXPECT_TRUE(compiled.ExtractAllocations(result.values).empty());
}

TEST_F(CompilerTest, MaxChoosesHigherValueBranch) {
  StrlExpr root = Max({NCk(cluster_.AllPartitions(), 2, 0, 10, 3.0, 1),
                       NCk(cluster_.AllPartitions(), 2, 0, 20, 4.0, 2)});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 4.0, 1e-6);
  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].tag, 2);
}

TEST_F(CompilerTest, SupplyConstraintLimitsConcurrency) {
  // Three gangs of 2 at the same time on 3 machines: only one fits.
  std::vector<StrlExpr> jobs;
  for (int j = 0; j < 3; ++j) {
    jobs.push_back(NCk(cluster_.AllPartitions(), 2, 0, 10, 1.0, j + 1));
  }
  StrlExpr root = Sum(std::move(jobs));
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 1.0, 1e-6);
}

TEST_F(CompilerTest, ObjectiveMatchesStrlEvaluation) {
  StrlExpr root =
      Sum({Max({NCk(cluster_.AllPartitions(), 2, 0, 10, 2.0, 1),
                NCk(cluster_.AllPartitions(), 2, 10, 10, 1.5, 2)}),
           Max({NCk(cluster_.AllPartitions(), 1, 0, 20, 1.0, 3),
                NCk(cluster_.AllPartitions(), 1, 10, 20, 0.5, 4)})});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  auto allocations = compiled.ExtractAllocations(result.values);
  EXPECT_NEAR(result.objective, EvaluateStrl(root, ToGrants(allocations)),
              1e-6);
}

// Paper §5.1 / Fig 4: 3 jobs on 3 machines; the only way to satisfy every
// deadline is global scheduling with plan-ahead, yielding job 1 at t=0,
// job 3 at t=10, job 2 at t=20.
TEST_F(CompilerTest, PaperWorkedExampleFig4) {
  PartitionSet all = cluster_.AllPartitions();
  // Job 1: 2 machines x 10s, deadline 10 -> only start 0.
  StrlExpr job1 = NCk(all, 2, 0, 10, 1.0, 100);
  // Job 2: 1 machine x 20s, deadline 40 -> starts 0, 10, 20.
  StrlExpr job2 = Max({NCk(all, 1, 0, 20, 1.0, 200), NCk(all, 1, 10, 20, 1.0, 201),
                       NCk(all, 1, 20, 20, 1.0, 202)});
  // Job 3: 3 machines x 10s, deadline 20 -> starts 0, 10.
  StrlExpr job3 = Max({NCk(all, 3, 0, 10, 1.0, 300), NCk(all, 3, 10, 10, 1.0, 301)});
  StrlExpr root = Sum({std::move(job1), std::move(job2), std::move(job3)});

  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 3.0, 1e-6);  // all three deadlines met

  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 3u);
  std::map<LeafTag, SimTime> starts;
  for (const StrlAllocation& alloc : allocations) {
    starts[alloc.tag] = alloc.start;
  }
  EXPECT_TRUE(starts.count(100));
  EXPECT_EQ(starts[100], 0);   // job 1 immediately
  EXPECT_TRUE(starts.count(202));
  EXPECT_EQ(starts[202], 20);  // job 2 deferred to t=20
  EXPECT_TRUE(starts.count(301));
  EXPECT_EQ(starts[301], 10);  // job 3 at t=10
}

TEST_F(CompilerTest, WarmStartRoundTrips) {
  PartitionSet all = cluster_.AllPartitions();
  StrlExpr root = Sum({Max({NCk(all, 2, 0, 10, 2.0, 1)}),
                       Max({NCk(all, 1, 0, 10, 1.0, 2)})});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);

  LeafGrants grants{{1, {{0, 2}}}, {2, {{0, 1}}}};
  std::vector<double> warm = compiled.BuildWarmStart(grants);
  ASSERT_FALSE(warm.empty());
  EXPECT_TRUE(compiled.model().IsFeasible(warm, 1e-6));
  EXPECT_NEAR(compiled.model().ObjectiveValue(warm), 3.0, 1e-9);

  MilpResult result = SolveCompiled(compiled, warm);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 3.0, 1e-6);
}

TEST_F(CompilerTest, WarmStartWithUnknownTagIsRejected) {
  StrlExpr root = NCk(cluster_.AllPartitions(), 1, 0, 10, 1.0, 1);
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  EXPECT_TRUE(compiled.BuildWarmStart({{99, {{0, 1}}}}).empty());
}

TEST_F(CompilerTest, ReducedAvailabilityIsRespected) {
  // 2 of 3 machines busy during [0, 20): a 2-gang can only run at t=20.
  avail_.Reduce(0, {0, 20}, 2);
  PartitionSet all = cluster_.AllPartitions();
  StrlExpr root = Max({NCk(all, 2, 0, 10, 3.0, 1), NCk(all, 2, 10, 10, 2.0, 2),
                       NCk(all, 2, 20, 10, 1.0, 3)});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].tag, 3);
  EXPECT_NEAR(result.objective, 1.0, 1e-6);
}

class HeterogeneousCompilerTest : public ::testing::Test {
 protected:
  // Fig 1 cluster: 2 racks x 2 nodes, rack 0 GPU-enabled.
  HeterogeneousCompilerTest()
      : cluster_(MakeUniformCluster(2, 2, 1)),
        grid_{.start = 0, .quantum = 1, .num_slices = 6},
        avail_(cluster_, grid_) {}

  Cluster cluster_;
  TimeGrid grid_;
  AvailabilityGrid avail_;
};

TEST_F(HeterogeneousCompilerTest, GpuJobPrefersGpuNodes) {
  // Paper §4.3: GPU job takes 2 time units on GPU nodes, 3 otherwise; value
  // decreases with completion time.
  StrlExpr root = Max({NCk(cluster_.GpuPartitions(), 2, 0, 2, 4.0, 1),
                       NCk(cluster_.AllPartitions(), 2, 0, 3, 3.0, 2)});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].tag, 1);
  // All nodes granted from the GPU partition.
  for (const auto& [partition, count] : allocations[0].counts) {
    EXPECT_TRUE(cluster_.partition(partition).has_gpu);
    EXPECT_EQ(count, 2);
  }
}

TEST_F(HeterogeneousCompilerTest, GpuBusyFallsBackToAnywhere) {
  avail_.Reduce(cluster_.GpuPartitions()[0], {0, 6}, 2);  // GPUs all busy
  StrlExpr root = Max({NCk(cluster_.GpuPartitions(), 2, 0, 2, 4.0, 1),
                       NCk(cluster_.AllPartitions(), 2, 0, 3, 3.0, 2)});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].tag, 2);
  EXPECT_NEAR(result.objective, 3.0, 1e-6);
}

TEST_F(HeterogeneousCompilerTest, MinExpressesAntiAffinity) {
  // Fig 1 Availability job: one task on each rack, duration 3.
  StrlExpr root = Min({NCk(cluster_.RackPartitions(0), 1, 0, 3, 2.0, 1),
                       NCk(cluster_.RackPartitions(1), 1, 0, 3, 2.0, 2)});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 2.0, 1e-6);
  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 2u);
}

TEST_F(HeterogeneousCompilerTest, LnCkGrantsPartialGangs) {
  // 4-node cluster, ask for up to 6 nodes linearly: expect 4 granted.
  StrlExpr root = LnCk(cluster_.AllPartitions(), 6, 0, 2, 6.0, 1);
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 4.0, 1e-6);
  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].total_nodes(), 4);
}

TEST_F(HeterogeneousCompilerTest, ScaledJobWinsContention) {
  // Two identical jobs contending for the same 2 GPU nodes; the scaled one
  // (higher priority) must win.
  StrlExpr job_a = NCk(cluster_.GpuPartitions(), 2, 0, 2, 1.0, 1);
  StrlExpr job_b = Scale(NCk(cluster_.GpuPartitions(), 2, 0, 2, 1.0, 2), 10.0);
  StrlExpr root = Sum({std::move(job_a), std::move(job_b)});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  auto allocations = compiled.ExtractAllocations(result.values);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].tag, 2);
  EXPECT_NEAR(result.objective, 10.0, 1e-6);
}

TEST_F(HeterogeneousCompilerTest, BarrierGatesLowValueAllocations) {
  // Barrier of 3 over a 2-valued subtree: no allocation is worth making.
  StrlExpr root = Barrier(NCk(cluster_.AllPartitions(), 1, 0, 2, 2.0, 1), 3.0);
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 0.0, 1e-6);
  EXPECT_TRUE(compiled.ExtractAllocations(result.values).empty());
}

// Pins the supply-row layout: one row per (partition, slice) cell some
// unculled leaf draws from, emitted in (partition, slice) order, each row's
// terms in leaf order.
TEST_F(HeterogeneousCompilerTest, SupplyRowsInCellOrderWithTermsInLeafOrder) {
  const PartitionId gpu = cluster_.RackPartitions(0)[0];
  const PartitionId plain = cluster_.RackPartitions(1)[0];
  avail_.Reduce(gpu, {0, 2}, 2);  // GPU rack saturated over slices 0-1
  PartitionSet all = cluster_.AllPartitions();
  StrlExpr root = Sum({
      NCk(all, 2, 0, 2, 1.0, 1),  // only `plain` has headroom: collapses
      Max({NCk(cluster_.RackPartitions(0), 2, 0, 2, 1.0, 2),  // culled
           NCk(all, 2, 2, 3, 1.0, 3)}),  // both racks: P variables
      NCk(all, 1, 1, 2, 1.0, 4),  // `gpu` is full at slice 1: collapses
  });
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  ASSERT_EQ(compiled.num_leaves(), 4);
  EXPECT_TRUE(compiled.LeafCulledAtCompile(2));
  EXPECT_FALSE(compiled.AllLeavesCulled());

  std::set<std::pair<PartitionId, int>> cells = {
      {plain, 0}, {plain, 1},                            // tag 1
      {gpu, 2},   {gpu, 3},   {gpu, 4},                  // tag 3
      {plain, 2}, {plain, 3}, {plain, 4},                // tag 3
      {plain, 1}, {plain, 2},                            // tag 4
  };
  std::vector<std::pair<PartitionId, int>> expected(cells.begin(),
                                                    cells.end());
  std::vector<std::pair<PartitionId, int>> emitted;
  for (const SupplyRowRef& ref : compiled.supply_rows()) {
    emitted.emplace_back(ref.partition, ref.slice);
    EXPECT_EQ(ref.rhs, avail_.avail(ref.partition, ref.slice));
    EXPECT_EQ(ref.slice_start, grid_.SliceStart(ref.slice));
  }
  EXPECT_EQ(emitted, expected);

  std::map<VarId, int> leaf_of;
  for (int leaf = 0; leaf < compiled.num_leaves(); ++leaf) {
    for (VarId var : compiled.LeafVars(leaf)) {
      leaf_of[var] = leaf;
    }
  }
  for (const SupplyRowRef& ref : compiled.supply_rows()) {
    int previous = -1;
    for (const LinTerm& term : compiled.model().constraint_terms(ref.row)) {
      ASSERT_EQ(leaf_of.count(term.var), 1u);
      EXPECT_GT(leaf_of[term.var], previous)
          << "partition " << ref.partition << " slice " << ref.slice;
      previous = leaf_of[term.var];
    }
  }
  // Row (plain, 1) is shared by the two collapsed leaves: k * indicator each.
  auto shared = std::find_if(
      compiled.supply_rows().begin(), compiled.supply_rows().end(),
      [&](const SupplyRowRef& ref) {
        return ref.partition == plain && ref.slice == 1;
      });
  ASSERT_NE(shared, compiled.supply_rows().end());
  std::span<const LinTerm> terms =
      compiled.model().constraint_terms(shared->row);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].var, compiled.LeafVars(0)[0]);
  EXPECT_EQ(terms[0].coeff, 2.0);
  EXPECT_EQ(terms[1].var, compiled.LeafVars(3)[0]);
  EXPECT_EQ(terms[1].coeff, 1.0);
}

TEST_F(HeterogeneousCompilerTest, AllLeavesCulledOnSaturatedGrid) {
  for (PartitionId partition : cluster_.AllPartitions()) {
    avail_.Reduce(partition, {0, 6}, cluster_.partition(partition).capacity());
  }
  PartitionSet all = cluster_.AllPartitions();
  // Every operator over culled leaves: the optimum must be the empty plan.
  StrlExpr root =
      Max({NCk(all, 1, 0, 2, 3.0, 1),
           Scale(Min({NCk(cluster_.RackPartitions(0), 1, 0, 2, 2.0, 2),
                      NCk(cluster_.RackPartitions(1), 1, 0, 2, 2.0, 3)}),
                 4.0),
           Barrier(LnCk(all, 2, 2, 2, 2.0, 4), 1.0),
           Sum({NCk(all, 1, 4, 2, 1.0, 5), NCk(all, 1, 0, 6, 1.0, 6)})});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  EXPECT_TRUE(compiled.AllLeavesCulled());
  EXPECT_TRUE(compiled.supply_rows().empty());
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 0.0, 1e-9);
  EXPECT_TRUE(compiled.ExtractAllocations(result.values).empty());
}

TEST_F(HeterogeneousCompilerTest, AllLeavesCulledIsFalseWhenAnOptionFits) {
  // The GPU rack is full for the whole window, the other rack only later.
  const PartitionId gpu = cluster_.RackPartitions(0)[0];
  const PartitionId plain = cluster_.RackPartitions(1)[0];
  avail_.Reduce(gpu, {0, 6}, cluster_.partition(gpu).capacity());
  avail_.Reduce(plain, {2, 6}, cluster_.partition(plain).capacity());
  StrlExpr root = Max({NCk(cluster_.GpuPartitions(), 2, 0, 2, 4.0, 1),
                       NCk(cluster_.AllPartitions(), 2, 2, 2, 3.0, 2),
                       NCk(cluster_.AllPartitions(), 2, 0, 2, 2.0, 3)});
  CompiledStrl compiled = StrlCompiler(avail_).Compile(root);
  EXPECT_TRUE(compiled.LeafCulledAtCompile(1));
  EXPECT_TRUE(compiled.LeafCulledAtCompile(2));
  EXPECT_FALSE(compiled.LeafCulledAtCompile(3));
  EXPECT_FALSE(compiled.AllLeavesCulled());
  MilpResult result = SolveCompiled(compiled);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 2.0, 1e-6);
}

// A random STRL forest over every operator (Max/Min/Sum/Scale/Barrier) with
// nCk and LnCk leaves whose windows may overhang either edge of `grid`, or
// miss it entirely.
StrlExpr RandomForest(Rng& rng, const Cluster& cluster, const TimeGrid& grid,
                      int depth, LeafTag* next_tag) {
  if (depth == 0 || rng.Bernoulli(0.3)) {
    PartitionSet set;
    for (PartitionId partition : cluster.AllPartitions()) {
      if (rng.Bernoulli(0.5)) {
        set.push_back(partition);
      }
    }
    if (set.empty()) {
      set.push_back(static_cast<PartitionId>(
          rng.UniformInt(0, cluster.num_partitions() - 1)));
    }
    const int k = static_cast<int>(rng.UniformInt(1, 5));
    const SimTime start = rng.UniformInt(grid.start - 3 * grid.quantum,
                                         grid.horizon_end() + grid.quantum);
    const SimDuration dur = rng.UniformInt(1, 4 * grid.quantum);
    const double value = rng.UniformReal(0.5, 5.0);
    return rng.Bernoulli(0.5) ? NCk(set, k, start, dur, value, (*next_tag)++)
                              : LnCk(set, k, start, dur, value, (*next_tag)++);
  }
  auto children = [&] {
    std::vector<StrlExpr> out;
    const int count = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < count; ++i) {
      out.push_back(RandomForest(rng, cluster, grid, depth - 1, next_tag));
    }
    return out;
  };
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return Max(children());
    case 1:
      return Min(children());
    case 2:
      return Sum(children());
    case 3:
      return Scale(RandomForest(rng, cluster, grid, depth - 1, next_tag),
                   rng.UniformReal(0.5, 3.0));
    default:
      return Barrier(RandomForest(rng, cluster, grid, depth - 1, next_tag),
                     rng.UniformReal(0.5, 3.0));
  }
}

// Appends every leaf of `expr` to `leaves`.
void CollectLeaves(const StrlExpr& expr, std::vector<const StrlExpr*>* leaves) {
  if (expr.IsLeaf()) {
    leaves->push_back(&expr);
  }
  for (const StrlExpr& child : expr.children) {
    CollectLeaves(child, leaves);
  }
}

// LeafFits runs the compiler's cull test without compiling, so it must
// agree with the compiled model on every leaf of every forest and grid.
TEST(LeafFitsTest, AgreesWithCompileOnRandomForests) {
  Rng rng(2016);
  Cluster cluster = MakeUniformCluster(3, 3, 1);
  const TimeGrid grid{.start = 20, .quantum = 5, .num_slices = 6};
  int fits = 0;
  int culled = 0;
  int leaves_checked = 0;
  for (int trial = 0; trial < 600; ++trial) {
    // Saturate a random share of each partition over random ranges; a few
    // grids are left empty and a few filled outright.
    AvailabilityGrid avail(cluster, grid);
    const double saturation = rng.UniformReal(0.0, 1.0);
    for (PartitionId partition : cluster.AllPartitions()) {
      const int capacity = cluster.partition(partition).capacity();
      const int holds = static_cast<int>(rng.UniformInt(0, 3));
      for (int h = 0; h < holds; ++h) {
        const SimTime from = rng.UniformInt(grid.start, grid.horizon_end());
        const SimTime to = rng.UniformInt(from, grid.horizon_end() + 5);
        avail.Reduce(partition, {from, to},
                     rng.Bernoulli(saturation) ? capacity
                                               : rng.UniformInt(0, capacity));
      }
      if (rng.Bernoulli(saturation * saturation)) {
        avail.Reduce(partition, {grid.start, grid.horizon_end()}, capacity);
      }
    }
    LeafTag next_tag = 1;
    StrlExpr root = RandomForest(rng, cluster, grid, 3, &next_tag);
    CompiledStrl compiled = StrlCompiler(avail).Compile(root);
    std::vector<const StrlExpr*> leaves;
    CollectLeaves(root, &leaves);
    bool any_fits = false;
    for (const StrlExpr* leaf : leaves) {
      const bool leaf_fits =
          LeafFits(avail, leaf->partitions, leaf->k, leaf->start,
                   leaf->duration, leaf->kind == StrlKind::kLnCk);
      EXPECT_EQ(leaf_fits, !compiled.LeafCulledAtCompile(leaf->tag))
          << "trial " << trial << ", leaf " << ToString(*leaf);
      any_fits = any_fits || leaf_fits;
      ++leaves_checked;
    }
    EXPECT_EQ(any_fits, !compiled.AllLeavesCulled()) << "trial " << trial;
    ++(any_fits ? fits : culled);
  }
  // Both outcomes must be well represented for the sweep to mean anything.
  EXPECT_GE(fits, 100);
  EXPECT_GE(culled, 100);
  EXPECT_GE(leaves_checked, 1200);
}

// Property sweep: random forests of jobs must produce solver objectives that
// match the STRL evaluator on the extracted allocation, and never violate
// supply.
class CompilerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CompilerPropertyTest, ExtractionConsistentAndSupplySafe) {
  Rng rng(777 + GetParam());
  Cluster cluster = MakeUniformCluster(2, 3, 1);
  TimeGrid grid{.start = 0, .quantum = 5, .num_slices = 6};
  AvailabilityGrid avail(cluster, grid);

  std::vector<StrlExpr> jobs;
  int num_jobs = static_cast<int>(rng.UniformInt(2, 6));
  LeafTag next_tag = 1;
  for (int j = 0; j < num_jobs; ++j) {
    std::vector<StrlExpr> options;
    int num_options = static_cast<int>(rng.UniformInt(1, 4));
    int k = static_cast<int>(rng.UniformInt(1, 4));
    for (int o = 0; o < num_options; ++o) {
      SimTime start = rng.UniformInt(0, 5) * 5;
      SimDuration dur = rng.UniformInt(1, 4) * 5;
      PartitionSet set = rng.Bernoulli(0.5) ? cluster.AllPartitions()
                                            : cluster.GpuPartitions();
      options.push_back(
          NCk(set, k, start, dur, rng.UniformReal(0.5, 5.0), next_tag++));
    }
    jobs.push_back(Max(std::move(options)));
  }
  StrlExpr root = Sum(std::move(jobs));

  CompiledStrl compiled = StrlCompiler(avail).Compile(root);
  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(compiled.model(), options).Solve();
  ASSERT_TRUE(result.HasSolution()) << "seed " << GetParam();

  auto allocations = compiled.ExtractAllocations(result.values);
  EXPECT_NEAR(result.objective, EvaluateStrl(root, ToGrants(allocations)),
              1e-5)
      << "seed " << GetParam();

  // Replay the allocations against a fresh grid: supply must never go
  // negative.
  AvailabilityGrid replay(cluster, grid);
  for (const StrlAllocation& alloc : allocations) {
    for (const auto& [partition, count] : alloc.counts) {
      replay.Reduce(partition, {alloc.start, alloc.start + alloc.duration},
                    count);
    }
  }
  for (int p = 0; p < cluster.num_partitions(); ++p) {
    for (int s = 0; s < grid.num_slices; ++s) {
      EXPECT_GE(replay.avail(p, s), 0)
          << "seed " << GetParam() << " partition " << p << " slice " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomForests, CompilerPropertyTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace tetrisched
