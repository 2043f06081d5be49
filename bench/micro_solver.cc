// Google-benchmark microbenchmarks for the scheduling pipeline's hot pieces:
// STRL generation, STRL->MILP compilation, LP relaxation, and full MILP
// solves at several plan-ahead window sizes. Quantifies the §7.3 claim that
// MILP size (and hence solver latency) grows with the plan-ahead window, and
// that warm starts cut solve time.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_json.h"
#include "src/cluster/availability.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/compiler/compiler.h"
#include "src/core/strl_gen.h"
#include "src/solver/milp.h"
#include "src/solver/simplex.h"
#include "tests/solver_models.h"

namespace tetrisched {
namespace {

// A GS-HET-like pending queue: `jobs` mixed GPU/MPI/unconstrained jobs.
std::vector<Job> MakeQueue(int jobs) {
  std::vector<Job> queue;
  for (int i = 0; i < jobs; ++i) {
    Job job;
    job.id = i;
    job.k = 2 + i % 3;
    job.actual_runtime = 40 + 13 * (i % 5);
    job.deadline = 600 + 50 * i;
    job.slowdown = 1.5;
    job.slo_class =
        i % 4 == 3 ? SloClass::kBestEffort : SloClass::kSloAccepted;
    job.type = i % 3 == 0   ? JobType::kGpu
               : i % 3 == 1 ? JobType::kMpi
                            : JobType::kUnconstrained;
    queue.push_back(job);
  }
  return queue;
}

StrlExpr BuildAggregate(const Cluster& cluster, const StrlGenerator& gen,
                        const std::vector<Job>& jobs,
                        OptionRegistry* registry) {
  std::vector<StrlExpr> exprs;
  for (const Job& job : jobs) {
    auto expr = gen.GenerateJobExpr(job, 0, registry);
    if (expr.has_value()) {
      exprs.push_back(std::move(*expr));
    }
  }
  return Sum(std::move(exprs));
}

void BM_StrlGeneration(benchmark::State& state) {
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  StrlGenerator gen(cluster, {.plan_ahead = state.range(0), .quantum = 8});
  std::vector<Job> jobs = MakeQueue(10);
  for (auto _ : state) {
    OptionRegistry registry;
    StrlExpr root = BuildAggregate(cluster, gen, jobs, &registry);
    benchmark::DoNotOptimize(CountLeaves(root));
  }
}
BENCHMARK(BM_StrlGeneration)->Arg(48)->Arg(96)->Arg(144);

void BM_StrlCompile(benchmark::State& state) {
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  SimDuration plan_ahead = state.range(0);
  StrlGenerator gen(cluster, {.plan_ahead = plan_ahead, .quantum = 8});
  std::vector<Job> jobs = MakeQueue(10);
  OptionRegistry registry;
  StrlExpr root = BuildAggregate(cluster, gen, jobs, &registry);
  TimeGrid grid{.start = 0, .quantum = 8,
                .num_slices = static_cast<int>(plan_ahead / 8)};
  AvailabilityGrid avail(cluster, grid);
  for (auto _ : state) {
    CompiledStrl compiled = StrlCompiler(avail).Compile(root);
    benchmark::DoNotOptimize(compiled.model().num_vars());
  }
  state.counters["milp_vars"] = static_cast<double>(
      StrlCompiler(avail).Compile(root).model().num_vars());
}
BENCHMARK(BM_StrlCompile)->Arg(48)->Arg(96)->Arg(144);

void BM_LpRelaxation(benchmark::State& state) {
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  SimDuration plan_ahead = state.range(0);
  StrlGenerator gen(cluster, {.plan_ahead = plan_ahead, .quantum = 8});
  std::vector<Job> jobs = MakeQueue(10);
  OptionRegistry registry;
  StrlExpr root = BuildAggregate(cluster, gen, jobs, &registry);
  TimeGrid grid{.start = 0, .quantum = 8,
                .num_slices = static_cast<int>(plan_ahead / 8)};
  AvailabilityGrid avail(cluster, grid);
  CompiledStrl compiled = StrlCompiler(avail).Compile(root);
  for (auto _ : state) {
    LpSolver lp(compiled.model());
    LpResult result = lp.Solve();
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_LpRelaxation)->Arg(48)->Arg(96)->Arg(144);

void BM_MilpSolve(benchmark::State& state) {
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  SimDuration plan_ahead = state.range(0);
  StrlGenerator gen(cluster, {.plan_ahead = plan_ahead, .quantum = 8});
  std::vector<Job> jobs = MakeQueue(8);
  OptionRegistry registry;
  StrlExpr root = BuildAggregate(cluster, gen, jobs, &registry);
  TimeGrid grid{.start = 0, .quantum = 8,
                .num_slices = static_cast<int>(plan_ahead / 8)};
  AvailabilityGrid avail(cluster, grid);
  CompiledStrl compiled = StrlCompiler(avail).Compile(root);
  MilpOptions options;  // paper defaults: 10% gap
  options.time_limit_seconds = 2.0;
  for (auto _ : state) {
    MilpResult result = MilpSolver(compiled.model(), options).Solve();
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_MilpSolve)->Arg(48)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_MilpSolveWarmStarted(benchmark::State& state) {
  // Warm start from the previous solve's solution: the §3.2.2 optimization.
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  StrlGenerator gen(cluster, {.plan_ahead = 96, .quantum = 8});
  std::vector<Job> jobs = MakeQueue(8);
  OptionRegistry registry;
  StrlExpr root = BuildAggregate(cluster, gen, jobs, &registry);
  TimeGrid grid{.start = 0, .quantum = 8, .num_slices = 12};
  AvailabilityGrid avail(cluster, grid);
  CompiledStrl compiled = StrlCompiler(avail).Compile(root);
  MilpOptions options;
  options.time_limit_seconds = 2.0;
  MilpResult cold = MilpSolver(compiled.model(), options).Solve();
  for (auto _ : state) {
    MilpResult warm = MilpSolver(compiled.model(), options).Solve(cold.values);
    benchmark::DoNotOptimize(warm.objective);
  }
}
BENCHMARK(BM_MilpSolveWarmStarted)->Unit(benchmark::kMillisecond);

void BM_MilpSolveDecomposition(benchmark::State& state) {
  // Block-diagonal solve with the decomposition layer on (arg = 1) vs the
  // monolithic baseline (arg = 0), same model and same 10% gap.
  MilpModel model = BlockPackingModel(6, 14, 7, 42);
  MilpOptions options;
  options.time_limit_seconds = 30.0;
  options.num_threads = 1;
  options.enable_decomposition = state.range(0) != 0;
  for (auto _ : state) {
    MilpResult result = MilpSolver(model, options).Solve();
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_MilpSolveDecomposition)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_MilpSolveObservabilityEnabled(benchmark::State& state) {
  // Same solve as BM_MilpSolve(96) but with clock-reading instrumentation
  // on; compare against BM_MilpSolve/96 to see the enabled-path cost on a
  // real workload (per-LP timing + spans).
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  StrlGenerator gen(cluster, {.plan_ahead = 96, .quantum = 8});
  std::vector<Job> jobs = MakeQueue(8);
  OptionRegistry registry;
  StrlExpr root = BuildAggregate(cluster, gen, jobs, &registry);
  TimeGrid grid{.start = 0, .quantum = 8, .num_slices = 12};
  AvailabilityGrid avail(cluster, grid);
  CompiledStrl compiled = StrlCompiler(avail).Compile(root);
  MilpOptions options;
  options.time_limit_seconds = 2.0;
  const bool prev = ObservabilityEnabled();
  SetObservabilityEnabled(true);
  for (auto _ : state) {
    MilpResult result = MilpSolver(compiled.model(), options).Solve();
    benchmark::DoNotOptimize(result.objective);
    // Keep the span buffer from growing without bound across iterations.
    SpanCollector::Global().Clear();
  }
  SetObservabilityEnabled(prev);
}
BENCHMARK(BM_MilpSolveObservabilityEnabled)->Unit(benchmark::kMillisecond);

void BM_ScopedSpanDisabled(benchmark::State& state) {
  // The acceptance bar for "zero-overhead when disabled": a disabled
  // TETRI_SPAN is one relaxed atomic load, no clock read.
  const bool prev = ObservabilityEnabled();
  SetObservabilityEnabled(false);
  for (auto _ : state) {
    TETRI_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
  SetObservabilityEnabled(prev);
}
BENCHMARK(BM_ScopedSpanDisabled);

void BM_ScopedSpanEnabled(benchmark::State& state) {
  const bool prev = ObservabilityEnabled();
  SetObservabilityEnabled(true);
  int since_clear = 0;
  for (auto _ : state) {
    {
      TETRI_SPAN("bench.enabled");
      benchmark::ClobberMemory();
    }
    if (++since_clear >= 8192) {
      state.PauseTiming();
      SpanCollector::Global().Clear();
      since_clear = 0;
      state.ResumeTiming();
    }
  }
  SetObservabilityEnabled(prev);
  SpanCollector::Global().Clear();
}
BENCHMARK(BM_ScopedSpanEnabled);

// The machine-readable solver record (satisfies a fixed op-name schema so the
// perf trajectory can be tracked across commits): LP relaxation plus a full
// MILP solve at the default 10% gap.
// Emitted only when TETRISCHED_BENCH_JSON is set; see bench/bench_json.h.
void EmitBenchJson() {
  if (!BenchJsonWriter::Requested()) {
    return;
  }
  BenchJsonWriter writer;
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  StrlGenerator gen(cluster, {.plan_ahead = 96, .quantum = 8});
  std::vector<Job> jobs = MakeQueue(8);
  OptionRegistry registry;
  StrlExpr root = BuildAggregate(cluster, gen, jobs, &registry);
  TimeGrid grid{.start = 0, .quantum = 8, .num_slices = 12};
  AvailabilityGrid avail(cluster, grid);
  CompiledStrl compiled = StrlCompiler(avail).Compile(root);

  {
    LpSolver lp(compiled.model());
    auto start = std::chrono::steady_clock::now();
    LpResult lp_result = lp.Solve();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    writer.Add("lp_relaxation_p96", ms,
               {{"lp_iterations", static_cast<double>(lp_result.iterations)},
                {"objective", lp_result.objective}});
  }
  {
    // Generous time budget so the run terminates at the default 10% gap and
    // its wall-clock comes from the search, not the clock.
    MilpOptions options;
    options.time_limit_seconds = 60.0;
    MilpResult result = MilpSolver(compiled.model(), options).Solve();
    writer.Add("milp_full_solve", result.solve_seconds * 1e3,
               {{"nodes", static_cast<double>(result.nodes)},
                {"lp_iterations", static_cast<double>(result.lp_iterations)},
                {"objective", result.objective},
                {"best_bound", result.best_bound},
                {"components", static_cast<double>(result.components)},
                {"decompose_ms", result.decompose_ms}});
  }

  // Decomposition on/off on a block-diagonal model (same instance, same 10%
  // gap, one thread): the cycle-time breakdown rows — components found,
  // time spent splitting, the slowest component — plus the wall-clock and
  // node-count delta of solving the blocks independently.
  {
    MilpModel blocks = BlockPackingModel(6, 14, 7, 42);
    for (bool decomposed : {false, true}) {
      MilpOptions options;
      options.time_limit_seconds = 60.0;
      options.max_nodes = 100000000;  // let both sides terminate at the gap
      options.num_threads = 1;
      options.enable_decomposition = decomposed;
      MilpResult result = MilpSolver(blocks, options).Solve();
      writer.Add(decomposed ? "milp_block6_decomposed" : "milp_block6_monolithic",
                 result.solve_seconds * 1e3,
                 {{"nodes", static_cast<double>(result.nodes)},
                  {"lp_iterations", static_cast<double>(result.lp_iterations)},
                  {"objective", result.objective},
                  {"best_bound", result.best_bound},
                  {"components", static_cast<double>(result.components)},
                  {"decompose_ms", result.decompose_ms},
                  {"max_component_ms", result.max_component_ms}});
    }
  }
  writer.WriteIfRequested("BENCH_solver.json");
}

}  // namespace
}  // namespace tetrisched

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tetrisched::EmitBenchJson();
  return 0;
}
