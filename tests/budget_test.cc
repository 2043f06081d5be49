// Cycle deadline enforcement tests (DESIGN.md §13): mid-LP cooperative
// cancellation at the solve's deadline, deadline-pool slicing and donation, the AIMD overload
// controller, the independent plan certifier, and crash-recovery round-trips
// of adapted plan-ahead state.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>

#include "src/common/budget.h"
#include "src/common/bytes.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/persist/persist.h"
#include "src/solver/certify.h"
#include "src/solver/milp.h"
#include "src/solver/simplex.h"

namespace tetrisched {
namespace {

// Sanitizer builds run the solver an order of magnitude slower, so wall-clock
// assertions get a wider allowance there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kWallClockSlop = 2.0;
#else
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kWallClockSlop = 2.0;
#else
constexpr double kWallClockSlop = 0.25;
#endif
#else
constexpr double kWallClockSlop = 0.25;
#endif
#endif

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Dense integer packing model whose *root LP alone* far exceeds a
// millisecond-scale deadline: every row touches every variable, so every
// pivot's eta vector is dense and each FTRAN and BTRAN touches O(m) entries
// per eta. Pre-deadline enforcement, nothing could interrupt the solve
// before the first B&B node boundary.
MilpModel AdversarialModel(int num_vars, int num_rows, uint64_t seed) {
  Rng rng(seed);
  MilpModel model;
  for (int i = 0; i < num_vars; ++i) {
    model.AddIntegerVar(0.0, 3.0);
    model.AddObjectiveTerm(i, rng.UniformReal(1.0, 10.0));
  }
  for (int r = 0; r < num_rows; ++r) {
    std::vector<LinTerm> row;
    row.reserve(num_vars);
    for (int i = 0; i < num_vars; ++i) {
      row.push_back({i, rng.UniformReal(0.1, 4.0)});
    }
    model.AddConstraint(std::move(row), ConstraintSense::kLessEqual,
                        rng.UniformReal(num_vars * 0.5, num_vars * 2.0));
  }
  return model;
}

// Seconds from now until `deadline`.
double SecondsUntil(Deadline deadline) {
  return std::chrono::duration<double>(deadline.at() -
                                       Deadline::Clock::now())
      .count();
}

TEST(DeadlinePoolTest, EarlyFinisherDonatesTime) {
  // Two equal-weight claimants slicing a deadline 100 s away. Sequentially,
  // the first gets ~half; once it releases, the second's share is computed
  // against the remaining outstanding weight and absorbs the donated half.
  DeadlinePool pool(Deadline::AfterSeconds(100.0), 2.0);
  EXPECT_NEAR(SecondsUntil(pool.Acquire(1.0, 0.001)), 50.0, 1.0);
  pool.Release(1.0);
  EXPECT_GT(SecondsUntil(pool.Acquire(1.0, 0.001)), 90.0);
  pool.Release(1.0);
}

TEST(DeadlinePoolTest, FloorAppliesWhenExhausted) {
  // A share that rounds to nothing is raised to the floor...
  const Deadline end = Deadline::AfterSeconds(100.0);
  DeadlinePool pool(end, 1e12);
  const Deadline slice = pool.Acquire(1.0, 5.0);
  EXPECT_NEAR(SecondsUntil(slice), 5.0, 1.0);
  EXPECT_LT(slice.at(), end.at());
  pool.Release(1.0);
  // ...but never past the pool's own deadline: a spent pool hands out a
  // deadline that has already passed.
  DeadlinePool spent(Deadline::AfterSeconds(0.0), 4.0);
  EXPECT_TRUE(spent.Acquire(1.0, 0.005).Expired());
  // A pool over a deadline that never expires hands out the same.
  DeadlinePool unbounded(Deadline(), 4.0);
  EXPECT_TRUE(unbounded.Acquire(1.0, 0.005).never());
}

TEST(AimdControllerTest, TrajectoryIsDeterministic) {
  AimdController aimd;
  // Feeds `n` identical observations; returns the last one's adaptation.
  auto observe = [&aimd](bool blown, int n) {
    int adapted = 0;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(adapted, 0) << "adapted before the streak was complete";
      adapted = aimd.Observe(blown);
    }
    return adapted;
  };

  // kShrinkAfter blown cycles -> one shrink (the streak resets on it).
  EXPECT_EQ(observe(true, AimdController::kShrinkAfter), -1);
  EXPECT_DOUBLE_EQ(aimd.level(), AimdController::kShrinkFactor);
  EXPECT_EQ(observe(true, AimdController::kShrinkAfter), -1);
  EXPECT_DOUBLE_EQ(aimd.level(), 0.25);
  // kRestoreAfter healthy cycles restore one additive step.
  EXPECT_EQ(observe(false, AimdController::kRestoreAfter), 1);
  EXPECT_DOUBLE_EQ(aimd.level(), 0.25 + AimdController::kRestoreStep);
  // A blown cycle resets the healthy streak...
  EXPECT_EQ(observe(false, AimdController::kRestoreAfter - 1), 0);
  EXPECT_EQ(aimd.Observe(true), 0);
  EXPECT_EQ(observe(false, AimdController::kRestoreAfter - 1), 0);
  // ...and a healthy cycle resets the blown streak.
  EXPECT_EQ(observe(true, AimdController::kShrinkAfter - 1), 0);
  EXPECT_EQ(aimd.Observe(false), 0);
  EXPECT_EQ(observe(true, AimdController::kShrinkAfter - 1), 0);
  EXPECT_DOUBLE_EQ(aimd.level(), 0.375);
  // Restores step up to 1 and stop there.
  for (double level = 0.5; level <= 1.0; level += 0.125) {
    EXPECT_EQ(observe(false, AimdController::kRestoreAfter), 1);
    EXPECT_DOUBLE_EQ(aimd.level(), level);
  }
  EXPECT_DOUBLE_EQ(aimd.level(), 1.0);
  EXPECT_EQ(observe(false, 2 * AimdController::kRestoreAfter), 0);
  EXPECT_DOUBLE_EQ(aimd.level(), 1.0);
}

TEST(AimdControllerTest, RestoreStateRoundTrips) {
  AimdController aimd;
  aimd.Observe(true);
  AimdController restored;
  restored.RestoreState(0.375, 2, 0);
  EXPECT_DOUBLE_EQ(restored.level(), 0.375);
  EXPECT_EQ(restored.blown_streak(), 2);
  EXPECT_EQ(restored.healthy_streak(), 0);
}

TEST(CancelTest, ExpiredTokenAbandonsLpImmediately) {
  MilpModel model = AdversarialModel(120, 120, 7);
  LpOptions options;
  options.deadline =
      Deadline(Deadline::Clock::now() - std::chrono::seconds(1));
  LpResult result = LpSolver(model, options).Solve();
  EXPECT_EQ(result.status, LpStatus::kCancelled);
  EXPECT_TRUE(result.values.empty());
}

// The root LP of each adversarial model takes far longer than the 50 ms
// limit (about 0.6 s alone in a RelWithDebInfo build on a 4-CPU x86 host),
// so the solve can only return on time if the deadline fires *inside* the
// LP. Parameterised over the model seed.
class CancelMidLpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CancelMidLpTest, DeadlineHonoredOnAdversarialModel) {
  MilpModel model = AdversarialModel(1000, 1000, GetParam());
  MilpOptions options;
  options.time_limit_seconds = 0.05;
  options.rel_gap = 0.0;
  options.abs_gap = 1e-9;
  options.stall_node_limit = 0;
  options.max_nodes = 1000000;
  auto start = std::chrono::steady_clock::now();
  MilpResult result = MilpSolver(model, options).Solve();
  double elapsed = SecondsSince(start);
  EXPECT_LE(elapsed, 2 * options.time_limit_seconds + kWallClockSlop);
  // Cut off this early the solve reports a limit, never a proven optimum.
  EXPECT_NE(result.solve_status, SolveStatus::kOptimal);
  // The cut fell inside the root relaxation: it never finished, so no bound.
  EXPECT_TRUE(std::isinf(result.best_bound)) << result.best_bound;
  if (result.HasSolution()) {
    // Whatever incumbent survived the cut must still certify clean.
    CertifyReport report = CertifyPlan(model, result, options);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(ModelSeeds, CancelMidLpTest,
                         ::testing::Values(uint64_t{11}, uint64_t{13}),
                         ::testing::PrintToStringParamName());

TEST(BlandRuleTest, ThresholdIsConfigurableAndCounted) {
  // A zero threshold engages Bland's rule from the first pivot; the
  // activation counter must tick and the solve must still reach the optimum.
  MilpModel model;
  for (int i = 0; i < 6; ++i) {
    model.AddContinuousVar(0.0, 1.0);
    model.AddObjectiveTerm(i, 1.0 + 0.1 * i);
  }
  for (int i = 0; i + 1 < 6; ++i) {
    model.AddConstraint({{i, 1.0}, {i + 1, 1.0}},
                        ConstraintSense::kLessEqual, 1.0);
  }
  Counter* activations =
      GlobalMetrics().GetCounter("tetrisched_solver_bland_activations_total");
  int64_t before = activations->value();
  LpOptions options;
  options.bland_pivot_limit = 0;
  LpResult result = LpSolver(model, options).Solve();
  EXPECT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_GT(activations->value(), before);
}

TEST(CertifyTest, AcceptsHonestIncumbent) {
  MilpModel model = AdversarialModel(30, 10, 29);
  MilpOptions options;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  CertifyReport report = CertifyPlan(model, result, options);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(CertifyTest, RejectsCorruptedIncumbent) {
  MilpModel model = AdversarialModel(30, 10, 31);
  MilpOptions options;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  ASSERT_FALSE(result.values.empty());

  // Out-of-bounds / non-integral value.
  MilpResult torn = result;
  torn.values[0] = 97.5;
  EXPECT_FALSE(CertifyPlan(model, torn, options).ok);

  // Objective claim no longer matches the values.
  MilpResult lied = result;
  lied.objective += 1000.0;
  EXPECT_FALSE(CertifyPlan(model, lied, options).ok);

  // Wrong dimension (a stitching bug's signature).
  MilpResult truncated = result;
  truncated.values.pop_back();
  EXPECT_FALSE(CertifyPlan(model, truncated, options).ok);

  // Claimed-optimal status whose bound cannot cover the incumbent.
  MilpResult bogus_gap = result;
  bogus_gap.solve_status = SolveStatus::kOptimal;
  bogus_gap.best_bound = result.objective - 100.0;
  EXPECT_FALSE(CertifyPlan(model, bogus_gap, options).ok);
}

// ---------------------------------------------------------------------------
// Scheduler-level: AIMD adaptation under a blown budget and its crash
// round-trip through the durable-state blob.

Job MakeJob(JobId id, int k, SimDuration runtime, SimTime deadline) {
  Job job;
  job.id = id;
  job.type = JobType::kUnconstrained;
  job.k = k;
  job.submit = 0;
  job.actual_runtime = runtime;
  job.slowdown = 1.0;
  job.deadline = deadline;
  job.slo_class = SloClass::kSloAccepted;
  job.wants_reservation = true;
  return job;
}

// A budget no real cycle can meet: every cycle observes blown.
TetriSchedConfig BlownBudgetConfig() {
  TetriSchedConfig config;
  config.plan_ahead = 96;
  config.quantum = 8;
  config.budget.budget_seconds = 1e-9;
  return config;
}

TEST(SchedulerBudgetTest, BlownBudgetHalvesPlanAheadAndRoundTrips) {
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriSchedConfig config = BlownBudgetConfig();
  TetriScheduler scheduler(cluster, config);
  EXPECT_EQ(scheduler.effective_plan_ahead(), config.plan_ahead);

  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  for (int cycle = 1; cycle <= AimdController::kShrinkAfter; ++cycle) {
    auto decision = scheduler.OnCycle(cycle * 4, pending, {});
    // Every cycle blows the budget, so the solve gets no time: the cycle
    // takes the greedy rung, which still places the job.
    EXPECT_TRUE(decision.stats.budget_blown);
    EXPECT_DOUBLE_EQ(decision.stats.budget_seconds, 1e-9);
    EXPECT_EQ(decision.stats.ladder_rung, 1);
    ASSERT_EQ(decision.start_now.size(), 1u);
    EXPECT_EQ(decision.start_now[0].job, job.id);
    // The window halves after the kShrinkAfter-th blown cycle, not before.
    const bool shrinks = cycle == AimdController::kShrinkAfter;
    EXPECT_EQ(decision.stats.plan_ahead_adapted, shrinks ? -1 : 0);
    EXPECT_EQ(scheduler.effective_plan_ahead(),
              shrinks ? config.plan_ahead / 2 : config.plan_ahead);
  }
  EXPECT_DOUBLE_EQ(scheduler.aimd().level(), AimdController::kShrinkFactor);
  EXPECT_EQ(scheduler.effective_plan_ahead() % config.quantum, 0);

  // Crash round-trip: a fresh scheduler importing the blob resumes on the
  // adapted trajectory, not the configured defaults.
  TetriScheduler recovered(cluster, config);
  recovered.ImportDurableState(scheduler.ExportDurableState());
  EXPECT_DOUBLE_EQ(recovered.aimd().level(), scheduler.aimd().level());
  EXPECT_EQ(recovered.aimd().blown_streak(), scheduler.aimd().blown_streak());
  EXPECT_EQ(recovered.effective_plan_ahead(),
            scheduler.effective_plan_ahead());
  EXPECT_DOUBLE_EQ(recovered.effective_rel_gap(),
                   scheduler.effective_rel_gap());
}

TEST(SchedulerBudgetTest, OlderJournalWithAdaptRecordRecoversLevel) {
  // Journals written before kPlanAheadAdapt was retired hold one such record
  // per adaptation next to the AIMD-suffixed kCommitApplied blob. Replay
  // must skip the former and recover level and window from the latter.
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriSchedConfig config = BlownBudgetConfig();
  TetriScheduler scheduler(cluster, config);
  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  for (int cycle = 1; cycle <= AimdController::kShrinkAfter; ++cycle) {
    scheduler.OnCycle(cycle * 4, pending, {});
  }
  ASSERT_LT(scheduler.effective_plan_ahead(), config.plan_ahead);

  PersistenceManager persist(std::make_unique<MemoryJournalStorage>());
  DurableEvent adapt;
  adapt.kind = DurableEventKind::kPlanAheadAdapt;
  adapt.time = 8;
  adapt.k = -1;
  adapt.runtime = scheduler.effective_plan_ahead();
  persist.Append(adapt);
  DurableEvent applied;
  applied.kind = DurableEventKind::kCommitApplied;
  applied.time = 8;
  applied.blob = scheduler.ExportDurableState();
  persist.Append(applied);

  RecoveryResult result = persist.Recover();
  EXPECT_EQ(result.replayed, 2);
  EXPECT_EQ(result.dropped + result.undecodable, 0);
  TetriScheduler recovered(cluster, config);
  recovered.ImportDurableState(result.state.policy_state);
  EXPECT_DOUBLE_EQ(recovered.aimd().level(), scheduler.aimd().level());
  EXPECT_EQ(recovered.effective_plan_ahead(),
            scheduler.effective_plan_ahead());
}

TEST(SchedulerBudgetTest, PreBudgetBlobStillImports) {
  // Blobs written before the budget subsystem end at the warm-start map;
  // importing one must neither warn-discard nor perturb the AIMD state.
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriScheduler scheduler(cluster, TetriSchedConfig::Full());
  ByteWriter writer;
  writer.PutU32(0);  // empty warm-start map, no AIMD suffix
  scheduler.ImportDurableState(writer.str());
  EXPECT_DOUBLE_EQ(scheduler.aimd().level(), 1.0);
  EXPECT_EQ(scheduler.effective_plan_ahead(), scheduler.config().plan_ahead);
}

TEST(SchedulerBudgetTest, ZeroBudgetKeepsSubsystemInert) {
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriSchedConfig config;  // budget_seconds defaults to 0
  TetriScheduler scheduler(cluster, config);
  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  auto decision = scheduler.OnCycle(0, pending, {});
  EXPECT_FALSE(decision.stats.budget_blown);
  EXPECT_DOUBLE_EQ(decision.stats.budget_seconds, 0.0);
  EXPECT_EQ(decision.stats.plan_ahead_adapted, 0);
  EXPECT_EQ(decision.stats.effective_plan_ahead, config.plan_ahead);
  EXPECT_EQ(scheduler.effective_plan_ahead(), config.plan_ahead);
}

TEST(SchedulerBudgetTest, CertifierLeavesHealthyPlansUntouched) {
  // The certifier always runs; a healthy cycle must still schedule and
  // report zero rejects.
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriScheduler scheduler(cluster, TetriSchedConfig::Full());
  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  auto decision = scheduler.OnCycle(0, pending, {});
  EXPECT_EQ(decision.stats.certifier_rejects, 0);
  EXPECT_EQ(decision.start_now.size(), 1u);
  EXPECT_EQ(decision.stats.ladder_rung, 0);
}

}  // namespace
}  // namespace tetrisched
