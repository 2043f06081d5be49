// Tests for the STRL Generator: plan-ahead expansion, job-type plugins,
// deadline culling, NH mode, and the probe that walks the same options
// without building them.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/cluster/availability.h"
#include "src/common/rng.h"
#include "src/compiler/compiler.h"
#include "src/core/strl_gen.h"

namespace tetrisched {
namespace {

Job MakeSloJob(JobId id, JobType type, int k, SimDuration runtime,
               SimTime deadline, double slowdown = 1.5) {
  Job job;
  job.id = id;
  job.type = type;
  job.wants_reservation = true;
  job.k = k;
  job.submit = 0;
  job.actual_runtime = runtime;
  job.slowdown = slowdown;
  job.deadline = deadline;
  job.slo_class = SloClass::kSloAccepted;
  return job;
}

class StrlGenTest : public ::testing::Test {
 protected:
  StrlGenTest()
      : cluster_(MakeUniformCluster(4, 4, 2)),
        generator_(cluster_, {.plan_ahead = 64, .quantum = 8}) {}

  Cluster cluster_;
  StrlGenerator generator_;
};

TEST_F(StrlGenTest, UnconstrainedJobGetsOneOptionPerStart) {
  Job job = MakeSloJob(1, JobType::kUnconstrained, 2, 20, 1000);
  OptionRegistry registry;
  auto expr = generator_.GenerateJobExpr(job, /*now=*/0, &registry);
  ASSERT_TRUE(expr.has_value());
  // Starts: 0, 8, 16, ..., 56 -> 8 options (plan-ahead 64, quantum 8).
  EXPECT_EQ(CountLeaves(*expr), 8);
  EXPECT_EQ(registry.size(), 8u);
  for (const auto& [tag, option] : registry) {
    EXPECT_EQ(option.job, 1);
    EXPECT_EQ(option.est_duration, 20);
    EXPECT_TRUE(option.preferred);
  }
}

TEST_F(StrlGenTest, MisalignedNowStartsImmediatelyThenAligns) {
  Job job = MakeSloJob(1, JobType::kUnconstrained, 2, 20, 1000);
  OptionRegistry registry;
  auto expr = generator_.GenerateJobExpr(job, /*now=*/10, &registry);
  ASSERT_TRUE(expr.has_value());
  std::vector<SimTime> starts;
  for (const auto& [tag, option] : registry) {
    starts.push_back(option.start);
  }
  std::sort(starts.begin(), starts.end());
  EXPECT_EQ(starts.front(), 10);  // immediate option
  EXPECT_EQ(starts[1], 16);       // next aligned quantum boundary
  for (size_t i = 1; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i] % 8, 0);
  }
}

TEST_F(StrlGenTest, GpuJobHasPreferredAndFallback) {
  Job job = MakeSloJob(2, JobType::kGpu, 2, 20, 1000);
  OptionRegistry registry;
  auto expr = generator_.GenerateJobExpr(job, 0, &registry);
  ASSERT_TRUE(expr.has_value());
  int preferred = 0, fallback = 0;
  for (const auto& [tag, option] : registry) {
    if (option.preferred) {
      ++preferred;
      EXPECT_EQ(option.est_duration, 20);
    } else {
      ++fallback;
      EXPECT_EQ(option.est_duration, 30);  // 1.5x slowdown
    }
  }
  EXPECT_EQ(preferred, 8);
  EXPECT_EQ(fallback, 8);
}

TEST_F(StrlGenTest, MpiJobEnumeratesRacks) {
  Job job = MakeSloJob(3, JobType::kMpi, 3, 20, 1000);
  OptionRegistry registry;
  auto expr = generator_.GenerateJobExpr(job, 0, &registry);
  ASSERT_TRUE(expr.has_value());
  // Per start: 4 rack options + 1 fallback = 5; 8 starts.
  EXPECT_EQ(CountLeaves(*expr), 40);
}

TEST_F(StrlGenTest, MpiGangLargerThanRackHasOnlyFallback) {
  Job job = MakeSloJob(4, JobType::kMpi, 6, 20, 1000);  // rack holds 4
  OptionRegistry registry;
  auto expr = generator_.GenerateJobExpr(job, 0, &registry);
  ASSERT_TRUE(expr.has_value());
  for (const auto& [tag, option] : registry) {
    EXPECT_FALSE(option.preferred);
  }
}

TEST_F(StrlGenTest, DeadlineCullsLateStarts) {
  // Deadline 30, runtime 20: only starts with s+20 <= 30 survive (s in
  // {0, 8}).
  Job job = MakeSloJob(5, JobType::kUnconstrained, 2, 20, 30);
  OptionRegistry registry;
  auto expr = generator_.GenerateJobExpr(job, 0, &registry);
  ASSERT_TRUE(expr.has_value());
  EXPECT_EQ(CountLeaves(*expr), 2);
}

TEST_F(StrlGenTest, UnreachableDeadlineDropsJob) {
  Job job = MakeSloJob(6, JobType::kUnconstrained, 2, 50, 30);
  OptionRegistry registry;
  EXPECT_FALSE(generator_.GenerateJobExpr(job, 0, &registry).has_value());
}

TEST_F(StrlGenTest, DeadlinePassedDropsJob) {
  Job job = MakeSloJob(7, JobType::kUnconstrained, 2, 20, 100);
  EXPECT_FALSE(generator_.GenerateJobExpr(job, /*now=*/200, nullptr)
                   .has_value());
}

TEST_F(StrlGenTest, BestEffortJobNeverDropped) {
  Job job;
  job.id = 8;
  job.k = 1;
  job.actual_runtime = 30;
  job.slo_class = SloClass::kBestEffort;
  auto expr = generator_.GenerateJobExpr(job, /*now=*/100000, nullptr);
  ASSERT_TRUE(expr.has_value());
  EXPECT_GT(CountLeaves(*expr), 0);
}

TEST_F(StrlGenTest, NhModeCollapsesToUnconstrainedSlow) {
  StrlGenerator nh(cluster_,
                   {.plan_ahead = 64, .quantum = 8,
                    .heterogeneity_aware = false});
  Job job = MakeSloJob(9, JobType::kGpu, 2, 20, 1000);
  OptionRegistry registry;
  auto expr = nh.GenerateJobExpr(job, 0, &registry);
  ASSERT_TRUE(expr.has_value());
  EXPECT_EQ(CountLeaves(*expr), 8);  // one whole-cluster option per start
  for (const auto& [tag, option] : registry) {
    EXPECT_FALSE(option.preferred);
    EXPECT_EQ(option.est_duration, 30);  // conservative slow estimate
  }
}

TEST_F(StrlGenTest, AvailabilityJobUsesMinOverRacks) {
  Job job = MakeSloJob(10, JobType::kAvailability, 2, 20, 1000, 1.0);
  OptionRegistry registry;
  auto expr = generator_.GenerateJobExpr(job, 0, &registry);
  ASSERT_TRUE(expr.has_value());
  // 2 racks involved per start, 8 starts -> 16 leaves.
  EXPECT_EQ(CountLeaves(*expr), 16);
}

TEST_F(StrlGenTest, TagsAreStableAcrossCycles) {
  // The same absolute slot must map to the same tag regardless of `now`, so
  // deferred plans can warm-start the next cycle.
  Job job = MakeSloJob(11, JobType::kUnconstrained, 2, 20, 1000);
  OptionRegistry at0, at4;
  generator_.GenerateJobExpr(job, 0, &at0);
  generator_.GenerateJobExpr(job, 4, &at4);
  int common = 0;
  for (const auto& [tag, option] : at4) {
    auto it = at0.find(tag);
    if (it != at0.end() && option.start > 4) {
      EXPECT_EQ(it->second.start, option.start);
      ++common;
    }
  }
  EXPECT_GT(common, 4);
}

TEST_F(StrlGenTest, ValueDecreasesWithLaterCompletionForBestEffort) {
  Job job;
  job.id = 12;
  job.k = 1;
  job.actual_runtime = 16;
  job.slo_class = SloClass::kBestEffort;
  OptionRegistry registry;
  generator_.GenerateJobExpr(job, 0, &registry);
  std::map<SimTime, double> value_by_start;
  for (const auto& [tag, option] : registry) {
    value_by_start[option.start] = option.value;
  }
  double prev = 1e18;
  for (const auto& [start, value] : value_by_start) {
    EXPECT_LT(value, prev);
    prev = value;
  }
}

// Probe must answer what building, then compiling, the job's expression
// would: kNoOption exactly when GenerateJobExpr returns nullopt, and kFits
// exactly when the compiled model keeps a leaf. Random jobs of every type,
// in both heterogeneity modes, against randomly saturated grids laid out as
// the scheduler lays them out (so long windows run off the grid's edge).
TEST(StrlGenProbeTest, AgreesWithGenerateAndCompile) {
  // Three racks of three; rack 0 has GPUs, and two nodes of rack 1 plus one
  // of rack 2 hold a dataset replica (attr tag 7).
  std::vector<NodeSpec> nodes;
  for (RackId rack = 0; rack < 3; ++rack) {
    for (int i = 0; i < 3; ++i) {
      NodeSpec node;
      node.rack = rack;
      node.has_gpu = rack == 0;
      node.attr_tag = (rack == 1 && i < 2) || (rack == 2 && i == 0) ? 7 : 0;
      nodes.push_back(node);
    }
  }
  const Cluster cluster(std::move(nodes));
  const PartitionSet replicas = cluster.TaggedPartitions(7);
  ASSERT_EQ(cluster.CapacityOf(replicas), 3);
  constexpr SimDuration kQuantum = 8;
  constexpr SimDuration kPlanAhead = 48;
  const StrlGenerator het(cluster,
                          {.plan_ahead = kPlanAhead, .quantum = kQuantum});
  const StrlGenerator nh(cluster, {.plan_ahead = kPlanAhead,
                                   .quantum = kQuantum,
                                   .heterogeneity_aware = false});
  constexpr std::array<JobType, 5> kTypes = {
      JobType::kUnconstrained, JobType::kGpu, JobType::kMpi,
      JobType::kAvailability, JobType::kDataLocal};
  constexpr std::array<SloClass, 3> kClasses = {
      SloClass::kBestEffort, SloClass::kSloAccepted,
      SloClass::kSloUnreserved};

  Rng rng(1000);
  std::array<int, 3> outcomes{};  // indexed by ProbeResult
  std::array<std::array<int, 3>, 5> by_type{};
  for (int trial = 0; trial < 900; ++trial) {
    const SimTime now = rng.UniformInt(0, 100);
    TimeGrid grid;
    grid.start = QuantizeDown(now, kQuantum);
    grid.quantum = kQuantum;
    grid.num_slices = static_cast<int>(
        QuantaCovering(now + kPlanAhead - grid.start, kQuantum));
    AvailabilityGrid avail(cluster, grid);
    const double saturation = rng.UniformReal(0.0, 1.0);
    for (PartitionId partition : cluster.AllPartitions()) {
      const int capacity = cluster.partition(partition).capacity();
      const int holds = static_cast<int>(rng.UniformInt(0, 3));
      for (int h = 0; h < holds; ++h) {
        const SimTime from = rng.UniformInt(grid.start, grid.horizon_end());
        const SimTime to = rng.UniformInt(from, grid.horizon_end() + 8);
        avail.Reduce(partition, {from, to},
                     rng.Bernoulli(saturation) ? capacity
                                               : rng.UniformInt(0, capacity));
      }
    }

    const int type_index = trial % static_cast<int>(kTypes.size());
    Job job;
    job.id = trial + 1;
    job.type = kTypes[type_index];
    job.k = static_cast<int>(rng.UniformInt(1, 10));  // up to above 9 nodes
    job.submit = rng.UniformInt(0, now);
    job.actual_runtime = rng.UniformInt(1, 120);
    job.slowdown = rng.UniformReal(1.0, 2.0);
    job.estimate_error = rng.UniformReal(-0.3, 0.3);
    job.slo_class = kClasses[rng.UniformInt(0, 2)];
    // Deadlines from already passed to beyond the window: zero, some or
    // every start meets them.
    job.deadline = now + rng.UniformInt(-20, 200);
    if (job.type == JobType::kDataLocal) {
      job.preferred_partitions =
          rng.Bernoulli(0.5) ? replicas : cluster.RackPartitions(2);
    }
    const StrlGenerator& generator = rng.Bernoulli(0.25) ? nh : het;

    const ProbeResult probe = generator.Probe(job, now, avail);
    OptionRegistry registry;
    const std::optional<StrlExpr> expr =
        generator.GenerateJobExpr(job, now, &registry);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ", type " << type_index << ", k "
                 << job.k << ", now " << now << ", nh "
                 << (&generator == &nh));
    ASSERT_EQ(probe == ProbeResult::kNoOption, !expr.has_value());
    if (expr.has_value()) {
      const bool fits = !StrlCompiler(avail).Compile(*expr).AllLeavesCulled();
      EXPECT_EQ(probe == ProbeResult::kFits, fits) << ToString(*expr);
    }
    ++outcomes[static_cast<int>(probe)];
    ++by_type[type_index][static_cast<int>(probe)];
  }
  // Every outcome must be well represented, overall and per job type, for
  // the sweep to mean anything.
  for (int outcome = 0; outcome < 3; ++outcome) {
    EXPECT_GE(outcomes[outcome], 100) << "outcome " << outcome;
    for (int type = 0; type < static_cast<int>(kTypes.size()); ++type) {
      EXPECT_GE(by_type[type][outcome], 10)
          << "type " << type << ", outcome " << outcome;
    }
  }
}

}  // namespace
}  // namespace tetrisched
