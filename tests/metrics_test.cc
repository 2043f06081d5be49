// Tests for the observability layer: metrics registry semantics, snapshot
// isolation, concurrent updates (run under TSan in CI), span tree recording,
// export formats, and the no-behavior-change guarantee of enabling exports.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/core/scheduler.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/solver/milp.h"
#include "src/solver/model.h"
#include "tests/solver_models.h"

namespace tetrisched {
namespace {

// Restores the global observability flag on scope exit so tests cannot leak
// an enabled flag into each other.
class ObservabilityGuard {
 public:
  ObservabilityGuard() : prev_(ObservabilityEnabled()) {}
  ~ObservabilityGuard() { SetObservabilityEnabled(prev_); }

 private:
  bool prev_;
};

TEST(MetricsTest, CounterBasics) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(MetricsTest, GaugeBasics) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(3.5);
  EXPECT_EQ(gauge.value(), 3.5);
  gauge.Set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket 0 (<= 1)
  hist.Observe(1.0);    // bucket 0 (upper bound inclusive)
  hist.Observe(5.0);    // bucket 1
  hist.Observe(500.0);  // overflow bucket
  HistogramSnapshot snap = hist.Snapshot("h");
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.sum, 506.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 500.0);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2);
  EXPECT_EQ(snap.buckets[1], 1);
  EXPECT_EQ(snap.buckets[2], 0);
  EXPECT_EQ(snap.buckets[3], 1);
  // Percentiles are monotone in p and clamped to the observed extrema.
  double p50 = snap.Percentile(50);
  double p95 = snap.Percentile(95);
  EXPECT_LE(p50, p95);
  EXPECT_GE(snap.Percentile(0), snap.min);
  EXPECT_LE(snap.Percentile(100), snap.max);
  EXPECT_DOUBLE_EQ(snap.Mean(), 506.5 / 4.0);
}

TEST(MetricsTest, EmptyHistogramIsWellDefined) {
  Histogram hist({1.0, 2.0});
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.Percentile(50), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(MetricsTest, SnapshotIsolation) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* hist = registry.GetHistogram("h", {1.0, 2.0});
  counter->Increment(3);
  hist->Observe(1.5);
  MetricsSnapshot snap = registry.Snapshot();
  // Updates after the snapshot must not be visible in it.
  counter->Increment(100);
  hist->Observe(0.5);
  EXPECT_EQ(snap.counters.at("c"), 3);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);
  EXPECT_EQ(registry.Snapshot().counters.at("c"), 103);
}

TEST(MetricsTest, RegistryFindOrCreateIsStable) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("same");
  Counter* b = registry.GetCounter("same");
  EXPECT_EQ(a, b);
  a->Increment(7);
  registry.Reset();
  // Reset zeroes values but keeps handed-out pointers valid.
  EXPECT_EQ(a->value(), 0);
  a->Increment();
  EXPECT_EQ(registry.GetCounter("same")->value(), 1);
}

TEST(MetricsTest, ConcurrentUpdatesAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* hist = registry.GetHistogram("h", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe(t % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.buckets[0] + snap.buckets[1], kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
}

TEST(MetricsTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("jobs_total")->Increment(5);
  registry.GetGauge("depth")->Set(2.5);
  Histogram* hist = registry.GetHistogram("latency_ms", {1.0, 10.0});
  hist->Observe(0.5);
  hist->Observe(5.0);
  std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("jobs_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_ms histogram"), std::string::npos);
  // Buckets are cumulative and end with +Inf.
  EXPECT_NE(text.find("latency_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_sum"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 2"), std::string::npos);
}

// Minimal structural JSON check: balanced braces/brackets outside strings.
void ExpectBalancedJson(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++braces;
    } else if (c == '}') {
      --braces;
    } else if (c == '[') {
      ++brackets;
    } else if (c == ']') {
      --brackets;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(MetricsTest, JsonExportShape) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(1);
  Histogram* hist = registry.GetHistogram("h", {1.0});
  hist->Observe(0.5);
  std::string json = registry.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // An empty registry is still valid JSON.
  ExpectBalancedJson(MetricsRegistry().ToJson());
}

TEST(SpanTest, DisabledSpansRecordNothing) {
  ObservabilityGuard guard;
  SetObservabilityEnabled(false);
  size_t before = SpanCollector::Global().size();
  {
    TETRI_SPAN("test.disabled");
    TETRI_SPAN("test.disabled_inner");
  }
  EXPECT_EQ(SpanCollector::Global().size(), before);
}

TEST(SpanTest, NestedSpansRecordDepthAndContainment) {
  ObservabilityGuard guard;
  SetObservabilityEnabled(true);
  SpanCollector::Global().Clear();
  {
    TETRI_SPAN("test.outer");
    { TETRI_SPAN("test.inner"); }
  }
  SetObservabilityEnabled(false);
  std::vector<SpanRecord> spans = SpanCollector::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans finish innermost-first.
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.thread, inner.thread);
  // Interval containment: inner ⊆ outer.
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us);
  SpanCollector::Global().Clear();
}

TEST(SpanTest, ChromeTraceJsonShape) {
  ObservabilityGuard guard;
  SetObservabilityEnabled(true);
  SpanCollector::Global().Clear();
  { TETRI_SPAN("test.chrome"); }
  SetObservabilityEnabled(false);
  std::string json = SpanCollector::Global().ToChromeTraceJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.chrome\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\""), std::string::npos);
  SpanCollector::Global().Clear();
}

// One measurement per phase: the span a scheduler phase records and the
// CycleStats seconds it reports come from the same two clock readings, so
// they agree to within the span's microsecond rounding.
TEST(SpanTest, SchedulerPhaseSpansMatchCycleStats) {
  ObservabilityGuard guard;
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  Job job;
  job.id = 1;
  job.type = JobType::kUnconstrained;
  job.k = 3;
  job.actual_runtime = 60;
  job.slowdown = 1.0;
  std::vector<const Job*> pending{&job};
  for (const TetriSchedConfig& config :
       {TetriSchedConfig::Full(), TetriSchedConfig::NoGlobal()}) {
    TetriScheduler scheduler(cluster, config);
    SetObservabilityEnabled(true);
    SpanCollector::Global().Clear();
    SchedulerPolicy::Decision decision = scheduler.OnCycle(0, pending, {});
    SetObservabilityEnabled(false);
    ASSERT_EQ(decision.start_now.size(), 1u) << scheduler.name();
    std::vector<SpanRecord> spans = SpanCollector::Global().Snapshot();
    SpanCollector::Global().Clear();

    const struct {
      const char* name;
      double seconds;
    } phases[] = {
        {"scheduler.cycle", decision.stats.cycle_seconds},
        {"scheduler.strl_gen", decision.stats.strl_gen_seconds},
        {"scheduler.compile", decision.stats.compile_seconds},
        {"scheduler.commit", decision.stats.commit_seconds},
    };
    for (const auto& phase : phases) {
      int count = 0;
      double span_seconds = 0.0;
      for (const SpanRecord& span : spans) {
        if (std::string_view(span.name) == phase.name) {
          ++count;
          span_seconds = 1e-6 * static_cast<double>(span.duration_us);
        }
      }
      EXPECT_EQ(count, 1) << scheduler.name() << " " << phase.name;
      EXPECT_GT(phase.seconds, 0.0) << scheduler.name() << " " << phase.name;
      EXPECT_NEAR(span_seconds, phase.seconds, 1e-6)
          << scheduler.name() << " " << phase.name;
    }
  }
}

// The solver keeps the same rule: a solve that presolve reduces and that
// splits into components records one presolve and one decompose sample, one
// branch-and-bound sample per component search, and each
// sample comes from the same two clock readings as its span.
TEST(SpanTest, SolverPhaseSpansMatchHistograms) {
  ObservabilityGuard guard;
  // Two blocks coupled only through z, which a singleton row pins to 0:
  // presolve fixes z, folds it out of both coupling rows, and the reduced
  // model splits in two.
  MilpModel model;
  AddDemandSupplyBlock(model, 3, 3.0);  // vars 0..5
  AddDemandSupplyBlock(model, 3, 3.0);  // vars 6..11
  VarId z = model.AddBinaryVar("z");
  model.AddConstraint({{0, 1.0}, {z, 1.0}}, ConstraintSense::kLessEqual, 2.0);
  model.AddConstraint({{6, 1.0}, {z, 1.0}}, ConstraintSense::kLessEqual, 2.0);
  model.AddConstraint({{z, 1.0}}, ConstraintSense::kLessEqual, 0.0);

  MetricsRegistry& registry = GlobalMetrics();
  Counter* solves = registry.GetCounter("tetrisched_solver_solves_total");
  struct Phase {
    const char* span;
    Histogram* histogram;
    int64_t count_before = 0;
    double sum_before = 0.0;
  } phases[] = {
      {"solver.presolve",
       registry.GetHistogram("tetrisched_phase_presolve_ms")},
      {"solver.decompose",
       registry.GetHistogram("tetrisched_phase_decompose_ms")},
      {"solver.branch_and_bound",
       registry.GetHistogram("tetrisched_phase_branch_and_bound_ms")},
  };
  for (Phase& phase : phases) {
    phase.count_before = phase.histogram->count();
    phase.sum_before = phase.histogram->sum();
  }
  const int64_t solves_before = solves->value();

  MilpOptions options;
  options.rel_gap = 0.0;
  options.time_limit_seconds = 30.0;
  SetObservabilityEnabled(true);
  SpanCollector::Global().Clear();
  MilpResult result = MilpSolver(model, options).Solve();
  SetObservabilityEnabled(false);
  std::vector<SpanRecord> spans = SpanCollector::Global().Snapshot();
  SpanCollector::Global().Clear();

  ASSERT_TRUE(result.HasSolution());
  ASSERT_EQ(result.components, 2);
  EXPECT_EQ(solves->value() - solves_before, result.components);
  auto span_ms = [&spans](const char* name, int* count, double* max_ms) {
    double total = 0.0;
    for (const SpanRecord& span : spans) {
      if (std::string_view(span.name) == name) {
        const double ms = 1e-3 * static_cast<double>(span.duration_us);
        ++*count;
        total += ms;
        *max_ms = std::max(*max_ms, ms);
      }
    }
    return total;
  };
  for (const Phase& phase : phases) {
    int count = 0;
    double max_ms = 0.0;
    const double total_ms = span_ms(phase.span, &count, &max_ms);
    const int64_t samples = phase.histogram->count() - phase.count_before;
    EXPECT_EQ(samples, count) << phase.span;
    if (std::string_view(phase.span) == "solver.branch_and_bound") {
      EXPECT_GE(samples, 1);
      EXPECT_LE(samples, result.components);
    } else {
      EXPECT_EQ(samples, 1) << phase.span;
    }
    // Spans round down to whole microseconds.
    EXPECT_NEAR(total_ms, phase.histogram->sum() - phase.sum_before,
                1e-3 * count)
        << phase.span;
    if (std::string_view(phase.span) == "solver.decompose") {
      EXPECT_NEAR(total_ms, result.decompose_ms, 1e-3);
    }
  }
  // The slowest component span is the result's max_component_ms.
  int components = 0;
  double max_component_ms = 0.0;
  span_ms("solver.component", &components, &max_component_ms);
  EXPECT_EQ(components, result.components);
  EXPECT_NEAR(max_component_ms, result.max_component_ms, 1e-3);
}

TEST(SolverObservabilityTest, SolvePopulatesPhaseInstruments) {
  ObservabilityGuard guard;
  SetObservabilityEnabled(true);
  MetricsRegistry& registry = GlobalMetrics();
  Histogram* lp_ms = registry.GetHistogram("tetrisched_phase_lp_ms");
  Histogram* bnb_ms =
      registry.GetHistogram("tetrisched_phase_branch_and_bound_ms");
  Counter* nodes = registry.GetCounter("tetrisched_solver_nodes_total");
  Counter* solves = registry.GetCounter("tetrisched_solver_solves_total");
  int64_t lp_before = lp_ms->count();
  int64_t bnb_before = bnb_ms->count();
  int64_t nodes_before = nodes->value();
  int64_t solves_before = solves->value();

  // max x + y with x + y <= 1.5 over binaries: fractional root, forces
  // branching, optimum 1.
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  VarId y = model.AddBinaryVar("y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 1.5);
  MilpOptions options;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 1.0, 1e-6);

  EXPECT_GT(lp_ms->count(), lp_before);
  EXPECT_GT(bnb_ms->count(), bnb_before);
  EXPECT_GT(nodes->value(), nodes_before);
  EXPECT_EQ(solves->value(), solves_before + 1);
}

Job MakeJob(JobId id, int k, SimDuration runtime, SimTime submit) {
  Job job;
  job.id = id;
  job.k = k;
  job.actual_runtime = runtime;
  job.submit = submit;
  return job;
}

std::string RunScheduleCsv(const SimConfig& base_config) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i + 1, 1 + i % 3, 40 + 10 * (i % 2), 5 * i));
  }
  ApplyAdmission(cluster, jobs);
  TetriSchedConfig config = TetriSchedConfig::Full();
  config.milp.rel_gap = 0.0;
  TetriScheduler scheduler(cluster, config);
  SimTrace trace;
  SimConfig sim_config = base_config;
  sim_config.trace = &trace;
  Simulator sim(cluster, scheduler, jobs, sim_config);
  sim.Run();
  return trace.ToCsv();
}

// Drops the trailing `value` column (wall-clock cycle latency, which varies
// run to run) so the remaining columns describe only scheduling decisions.
std::string StripTimingColumn(const std::string& csv) {
  std::istringstream in(csv);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    size_t comma = line.rfind(',');
    out += line.substr(0, comma);
    out += '\n';
  }
  return out;
}

TEST(DeterminismTest, EnablingExportsDoesNotChangeSchedule) {
  ObservabilityGuard guard;
  SetObservabilityEnabled(false);
  SimConfig plain;
  std::string baseline = StripTimingColumn(RunScheduleCsv(plain));

  SimConfig exporting;
  exporting.metrics_json_path = "metrics_test_export.json";
  exporting.metrics_prom_path = "metrics_test_export.prom";
  exporting.trace_json_path = "metrics_test_export_trace.json";
  std::string with_exports = StripTimingColumn(RunScheduleCsv(exporting));

  // Byte-identical event streams: observability must not steer decisions.
  EXPECT_EQ(baseline, with_exports);
  // Run() restored the flag it enabled.
  EXPECT_FALSE(ObservabilityEnabled());

  // The exported files exist, are well formed, and carry the phase data.
  auto slurp = [](const char* path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  std::string metrics_json = slurp("metrics_test_export.json");
  std::string prom = slurp("metrics_test_export.prom");
  std::string trace_json = slurp("metrics_test_export_trace.json");
  ExpectBalancedJson(metrics_json);
  ExpectBalancedJson(trace_json);
  for (const char* phase :
       {"tetrisched_phase_strl_gen_ms", "tetrisched_phase_compile_ms",
        "tetrisched_phase_solve_ms", "tetrisched_phase_commit_ms",
        "tetrisched_phase_lp_ms", "tetrisched_phase_branch_and_bound_ms"}) {
    EXPECT_NE(metrics_json.find(phase), std::string::npos) << phase;
    EXPECT_NE(prom.find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(trace_json.find("scheduler.cycle"), std::string::npos);
  EXPECT_NE(trace_json.find("scheduler.solve"), std::string::npos);
  std::remove("metrics_test_export.json");
  std::remove("metrics_test_export.prom");
  std::remove("metrics_test_export_trace.json");
}

TEST(ProcessMetricsTest, UptimeAndBuildInfoInBothExports) {
  UpdateProcessMetrics();
  MetricsRegistry& registry = GlobalMetrics();

  double uptime =
      registry.GetGauge("tetrisched_process_uptime_seconds")->value();
  EXPECT_GT(uptime, 0.0);
  EXPECT_LT(uptime, 3600.0);  // a test process is not an hour old

  // The build-info gauge follows the Prometheus idiom: constant 1, identity
  // in the labels.
  const std::string& name = BuildInfoMetricName();
  EXPECT_NE(name.find("tetrisched_build_info{"), std::string::npos);
  EXPECT_NE(name.find("version="), std::string::npos);
  EXPECT_NE(name.find("compiler="), std::string::npos);
  EXPECT_NE(name.find("sanitizers="), std::string::npos);
  EXPECT_EQ(registry.GetGauge(name)->value(), 1.0);

  std::string prom = registry.ToPrometheusText();
  // The TYPE comment must carry the bare metric name, the sample line the
  // labeled one.
  EXPECT_NE(prom.find("# TYPE tetrisched_build_info gauge\n"),
            std::string::npos);
  EXPECT_NE(prom.find(name + " 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tetrisched_process_uptime_seconds gauge"),
            std::string::npos);

  std::string json = registry.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("tetrisched_process_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(json.find("tetrisched_build_info"), std::string::npos);

  // A later refresh advances uptime monotonically.
  UpdateProcessMetrics();
  EXPECT_GE(registry.GetGauge("tetrisched_process_uptime_seconds")->value(),
            uptime);
}

}  // namespace
}  // namespace tetrisched
