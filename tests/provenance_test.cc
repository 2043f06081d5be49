// Tests for the decision-provenance subsystem (DESIGN.md §14): the shared
// JSON layer (escape round-trips, parser edge cases), the flight recorder
// (gating, ring bounds, record schema), the scheduler/simulator record
// sites (offered/chosen/rejected/culled, ladder rung counters, preemption
// and certifier counters), SLO-miss attribution, the explain reports, the
// crash-safety of the span tree, and the provenance-off byte-identical
// guarantee.

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/core/scheduler.h"
#include "src/obs/explain.h"
#include "src/obs/provenance.h"
#include "src/persist/persist.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/solver/certify.h"
#include "src/solver/milp.h"
#include "src/solver/model.h"

namespace tetrisched {
namespace {

// Restores global recorder/observability state on scope exit so tests do
// not leak an enabled flag into each other.
class ProvenanceGuard {
 public:
  ProvenanceGuard()
      : prev_prov_(ProvenanceRecorder::Global().enabled()),
        prev_obs_(ObservabilityEnabled()) {}
  ~ProvenanceGuard() {
    ProvenanceRecorder::Global().SetEnabled(prev_prov_);
    SetObservabilityEnabled(prev_obs_);
  }

 private:
  bool prev_prov_;
  bool prev_obs_;
};

Job MakeJob(JobId id, int k, SimDuration runtime, SimTime deadline,
            SloClass slo_class = SloClass::kBestEffort, SimTime submit = 0) {
  Job job;
  job.id = id;
  job.k = k;
  job.submit = submit;
  job.actual_runtime = runtime;
  job.deadline = deadline;
  job.slo_class = slo_class;
  job.wants_reservation = slo_class != SloClass::kBestEffort;
  return job;
}

TetriSchedConfig ExactConfig() {
  TetriSchedConfig config = TetriSchedConfig::Full();
  config.milp.rel_gap = 0.0;
  config.milp.time_limit_seconds = 1e9;
  return config;
}

std::vector<ProvenanceRecord> RecordsOfKind(
    const std::vector<ProvenanceRecord>& records, ProvKind kind) {
  std::vector<ProvenanceRecord> out;
  for (const ProvenanceRecord& record : records) {
    if (record.kind == kind) {
      out.push_back(record);
    }
  }
  return out;
}

// --- JSON layer (satellite: hardened escaping) -------------------------------

TEST(JsonTest, EscapeRoundTripsHostileStrings) {
  const std::string hostile =
      "quote\" backslash\\ newline\n tab\t cr\r bell\x07 nul-\x01- "
      "utf8 \xc3\xa9\xe2\x82\xac end";
  std::string quoted = JsonQuote(hostile);
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonParse(quoted, &value, &error)) << error;
  ASSERT_TRUE(value.is_string());
  EXPECT_EQ(value.string, hostile);
}

TEST(JsonTest, EscapeCoversEveryControlCharacter) {
  for (int c = 0; c < 0x20; ++c) {
    std::string s(1, static_cast<char>(c));
    std::string quoted = JsonQuote(s);
    // No raw control character may survive into the output.
    for (char out : quoted) {
      EXPECT_GE(static_cast<unsigned char>(out), 0x20u);
    }
    JsonValue value;
    ASSERT_TRUE(JsonParse(quoted, &value)) << "control char " << c;
    EXPECT_EQ(value.string, s);
  }
}

TEST(JsonTest, ParserEdgeCases) {
  JsonValue value;
  EXPECT_FALSE(JsonParse("{\"a\": 1} trailing", &value));
  EXPECT_FALSE(JsonParse("\"unterminated", &value));
  EXPECT_FALSE(JsonParse("{\"a\"}", &value));
  EXPECT_FALSE(JsonParse("", &value));
  EXPECT_TRUE(JsonParse("  {\"a\": [1, 2.5, -3e2], \"b\": null, "
                        "\"c\": true, \"d\": false}  ",
                        &value));
  EXPECT_EQ(value.IntOr("b", -7), -7);
  EXPECT_TRUE(value.BoolOr("c", false));
  const JsonValue* arr = value.Find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->items[2].number, -300.0);
  // Surrogate pairs decode to UTF-8.
  ASSERT_TRUE(JsonParse("\"\\ud83d\\ude00\"", &value));
  EXPECT_EQ(value.string, "\xf0\x9f\x98\x80");
  // Nesting bomb is rejected, not stack-overflowed.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonParse(deep, &value));
}

TEST(JsonTest, MetricsExportEscapesHostileNames) {
  MetricsRegistry registry;
  registry.GetCounter("we\"ird\nname\\x")->Increment(3);
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonParse(registry.ToJson(), &value, &error)) << error;
  const JsonValue* counters = value.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->IntOr("we\"ird\nname\\x", -1), 3);
}

TEST(JsonTest, ChromeTraceExportParses) {
  ProvenanceGuard guard;
  SetObservabilityEnabled(true);
  SpanCollector::Global().Clear();
  { TETRI_SPAN("test.provenance_trace"); }
  SetObservabilityEnabled(false);
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonParse(SpanCollector::Global().ToChromeTraceJson(), &value,
                        &error))
      << error;
  const JsonValue* events = value.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items.empty());
  EXPECT_EQ(events->items[0].StringOr("name", ""), "test.provenance_trace");
  SpanCollector::Global().Clear();
}

// --- Recorder core -----------------------------------------------------------

TEST(ProvenanceRecorderTest, DisabledRecordsNothing) {
  ProvenanceGuard guard;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  recorder.Enable();
  recorder.Disable();
  size_t before = recorder.size();
  ProvenanceRecord record;
  record.kind = ProvKind::kArrival;
  record.job = 1;
  recorder.Record(record);
  EXPECT_EQ(recorder.size(), before);
}

TEST(ProvenanceRecorderTest, RingIsBoundedAndCountsEvictions) {
  ProvenanceGuard guard;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  recorder.Enable(/*ring_capacity=*/16);
  EXPECT_EQ(recorder.ring_capacity(), 16u);
  for (int i = 0; i < 40; ++i) {
    ProvenanceRecord record;
    record.kind = ProvKind::kArrival;
    record.job = i;
    recorder.Record(std::move(record));
  }
  EXPECT_EQ(recorder.size(), 16u);
  EXPECT_EQ(recorder.dropped(), 24u);
  std::vector<ProvenanceRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 16u);
  // Oldest evicted first: the survivors are jobs 24..39 in seq order.
  EXPECT_EQ(snapshot.front().job, 24);
  EXPECT_EQ(snapshot.back().job, 39);
  EXPECT_LT(snapshot.front().seq, snapshot.back().seq);
  // Per-job summaries survive ring eviction.
  EXPECT_EQ(recorder.Summary(0).offered_cycles, 0);
  recorder.Disable();
}

TEST(ProvenanceRecorderTest, RecordJsonRoundTrips) {
  ProvenanceRecord record;
  record.kind = ProvKind::kRejected;
  record.seq = 7;
  record.cycle = 3;
  record.time = 42;
  record.job = 11;
  record.value = 2.5;
  record.label = "capa\"city\n";
  record.detail = JsonObj().Field("alternatives", 4).str();
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonParse(ProvenanceRecordToJson(record), &value, &error))
      << error;
  EXPECT_EQ(value.StringOr("kind", ""), "rejected");
  EXPECT_EQ(value.IntOr("seq", -1), 7);
  EXPECT_EQ(value.IntOr("cycle", -1), 3);
  EXPECT_EQ(value.IntOr("time", -1), 42);
  EXPECT_EQ(value.IntOr("job", -1), 11);
  EXPECT_DOUBLE_EQ(value.NumberOr("value", 0.0), 2.5);
  EXPECT_EQ(value.StringOr("label", ""), "capa\"city\n");
  const JsonValue* detail = value.Find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_EQ(detail->IntOr("alternatives", -1), 4);
}

// --- Scheduler record sites --------------------------------------------------

TEST(SchedulerProvenanceTest, OfferedAndChosenCarryAlternatives) {
  ProvenanceGuard guard;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  recorder.Enable();
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  Job job = MakeJob(1, 2, 60, 600, SloClass::kSloAccepted);
  TetriScheduler scheduler(cluster, ExactConfig());
  auto decision = scheduler.OnCycle(0, {&job}, {});
  recorder.Disable();
  ASSERT_EQ(decision.start_now.size(), 1u);

  std::vector<ProvenanceRecord> records = recorder.Snapshot();
  std::vector<ProvenanceRecord> offered =
      RecordsOfKind(records, ProvKind::kOffered);
  ASSERT_EQ(offered.size(), 1u);
  EXPECT_EQ(offered[0].job, 1);
  EXPECT_GE(offered[0].value, 1.0);  // number of alternatives
  JsonValue alts;
  ASSERT_TRUE(JsonParse(offered[0].detail, &alts));
  ASSERT_TRUE(alts.is_array());
  ASSERT_FALSE(alts.items.empty());
  // Every alternative carries its kind, geometry, and utility.
  for (const JsonValue& alt : alts.items) {
    EXPECT_FALSE(alt.StringOr("kind", "").empty());
    EXPECT_GE(alt.IntOr("k", -1), 1);
    EXPECT_GT(alt.NumberOr("value", 0.0), 0.0);
  }

  std::vector<ProvenanceRecord> chosen =
      RecordsOfKind(records, ProvKind::kChosen);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].job, 1);
  EXPECT_GT(chosen[0].value, 0.0);  // objective contribution
  JsonValue detail;
  ASSERT_TRUE(JsonParse(chosen[0].detail, &detail));
  EXPECT_EQ(detail.IntOr("nodes", -1), 2);
  std::vector<ProvenanceRecord> solves =
      RecordsOfKind(records, ProvKind::kSolve);
  ASSERT_EQ(solves.size(), 1u);
  EXPECT_EQ(solves[0].job, -1);
  EXPECT_EQ(solves[0].label, "optimal");
}

TEST(SchedulerProvenanceTest, SaturatedClusterYieldsCapacityRejection) {
  ProvenanceGuard guard;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  recorder.Enable();
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  // A hog holds every node far past the job's deadline; preemption stays
  // disabled, so the job is offered but cannot be allocated anywhere.
  Job job = MakeJob(1, 4, 60, 80, SloClass::kSloAccepted);
  RunningHold hog;
  hog.job = 9;
  hog.slo_class = SloClass::kBestEffort;
  hog.counts[0] = 4;
  hog.counts[1] = 4;
  hog.expected_end = 500;
  TetriScheduler scheduler(cluster, ExactConfig());
  auto decision = scheduler.OnCycle(16, {&job}, {hog});
  recorder.Disable();
  EXPECT_TRUE(decision.start_now.empty());

  std::vector<ProvenanceRecord> rejected =
      RecordsOfKind(recorder.Snapshot(), ProvKind::kRejected);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].job, 1);
  EXPECT_EQ(rejected[0].label, "capacity");
  JsonValue detail;
  ASSERT_TRUE(JsonParse(rejected[0].detail, &detail));
  EXPECT_GE(detail.IntOr("alternatives", 0), 1);
  EXPECT_EQ(detail.IntOr("blocked", -1), detail.IntOr("alternatives", -2));
  JobProvSummary summary = recorder.Summary(1);
  EXPECT_EQ(summary.rejected_cycles, 1);
  EXPECT_EQ(summary.capacity_cycles, 1);
}

TEST(SchedulerProvenanceTest, InfeasibleDeadlineIsCulled) {
  ProvenanceGuard guard;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  recorder.Enable();
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  // Deadline already unreachable: runtime 100 but only 10 s of window left.
  Job job = MakeJob(1, 2, 100, 10, SloClass::kSloUnreserved);
  TetriScheduler scheduler(cluster, ExactConfig());
  auto decision = scheduler.OnCycle(0, {&job}, {});
  recorder.Disable();
  ASSERT_EQ(decision.drop.size(), 1u);
  EXPECT_EQ(decision.drop[0], 1);

  std::vector<ProvenanceRecord> culled =
      RecordsOfKind(recorder.Snapshot(), ProvKind::kCulled);
  ASSERT_EQ(culled.size(), 1u);
  EXPECT_EQ(culled[0].job, 1);
  EXPECT_TRUE(recorder.Summary(1).culled);
}

TEST(SchedulerProvenanceTest, LadderRungWalkHitsDedicatedCounters) {
  ProvenanceGuard guard;
  MetricsRegistry& registry = GlobalMetrics();
  Counter* rung0 = registry.GetCounter("tetrisched_ladder_rung0_cycles_total");
  Counter* rung1 = registry.GetCounter("tetrisched_ladder_rung1_cycles_total");
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  Job job = MakeJob(1, 2, 60, 600, SloClass::kSloAccepted);

  // Rung 0: a healthy exact solve.
  int64_t rung0_before = rung0->value();
  TetriScheduler healthy(cluster, ExactConfig());
  healthy.OnCycle(0, {&job}, {});
  EXPECT_EQ(rung0->value(), rung0_before + 1);

  // Rung 1: a zero time budget leaves the solver without an incumbent, so
  // the cycle degrades to the greedy first-fit pass.
  recorder.Enable();
  int64_t rung1_before = rung1->value();
  TetriSchedConfig starved_config = ExactConfig();
  starved_config.milp.time_limit_seconds = 0.0;
  TetriScheduler starved(cluster, starved_config);
  auto decision = starved.OnCycle(0, {&job}, {});
  recorder.Disable();
  EXPECT_EQ(rung1->value(), rung1_before + 1);
  EXPECT_TRUE(decision.stats.used_fallback);
  EXPECT_EQ(decision.stats.ladder_rung, 1);
  std::vector<ProvenanceRecord> fallbacks =
      RecordsOfKind(recorder.Snapshot(), ProvKind::kFallback);
  ASSERT_FALSE(fallbacks.empty());
  EXPECT_EQ(fallbacks[0].label, "no-incumbent");
  EXPECT_DOUBLE_EQ(fallbacks[0].value, 1.0);
}

TEST(SchedulerProvenanceTest, RescuePreemptionCountsAndExplains) {
  ProvenanceGuard guard;
  Counter* preemptions =
      GlobalMetrics().GetCounter("tetrisched_preemptions_total");
  int64_t before = preemptions->value();
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  recorder.Enable();
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  Job slo = MakeJob(1, 8, 60, 80, SloClass::kSloAccepted);
  RunningHold hog;
  hog.job = 9;
  hog.slo_class = SloClass::kBestEffort;
  hog.start = 0;
  hog.counts[0] = 4;
  hog.counts[1] = 4;
  hog.expected_end = 500;
  TetriSchedConfig config = ExactConfig();
  config.enable_preemption = true;
  TetriScheduler scheduler(cluster, config);
  auto decision = scheduler.OnCycle(16, {&slo}, {hog});
  recorder.Disable();
  ASSERT_FALSE(decision.preempt.empty());
  EXPECT_GT(preemptions->value(), before);

  std::vector<ProvenanceRecord> rescues =
      RecordsOfKind(recorder.Snapshot(), ProvKind::kPreemptRescue);
  ASSERT_EQ(rescues.size(), 1u);
  EXPECT_EQ(rescues[0].job, 1);
  EXPECT_EQ(rescues[0].label, "youngest-be-first");
  JsonValue detail;
  ASSERT_TRUE(JsonParse(rescues[0].detail, &detail));
  const JsonValue* victims = detail.Find("victims");
  ASSERT_NE(victims, nullptr);
  ASSERT_EQ(victims->items.size(), 1u);
  EXPECT_DOUBLE_EQ(victims->items[0].number, 9.0);
}

TEST(SchedulerProvenanceTest, CertifierRejectIncrementsCounter) {
  Counter* rejects =
      GlobalMetrics().GetCounter("tetrisched_certifier_rejects_total");
  int64_t before = rejects->value();
  // max x with x <= 1: solve, then corrupt the incumbent so certification
  // must refuse it.
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1.0}}, ConstraintSense::kLessEqual, 1.0);
  MilpOptions options;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  result.values[x] = 7.0;  // out of bounds and off the claimed objective
  CertifyReport report = CertifyPlan(model, result, options);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.failure.empty());
  EXPECT_GT(rejects->value(), before);
}

// --- Simulator integration ---------------------------------------------------

SimMetrics RunChurnSim(SimConfig config, std::vector<Job>* jobs_out = nullptr) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  // One SLO gang killed mid-flight by a node failure (backoff pushes the
  // restart past the deadline) plus a best-effort job for contrast.
  std::vector<Job> jobs{MakeJob(1, 4, 60, 80, SloClass::kBestEffort),
                        MakeJob(2, 2, 30, 400, SloClass::kBestEffort, 4)};
  jobs[0].wants_reservation = true;
  ApplyAdmission(cluster, jobs);
  config.node_failures = {{/*at=*/30, /*node=*/0, /*recover_at=*/200}};
  if (jobs_out != nullptr) {
    *jobs_out = jobs;
  }
  TetriScheduler scheduler(cluster, ExactConfig());
  Simulator sim(cluster, scheduler, jobs, config);
  return sim.Run();
}

TEST(SimProvenanceTest, ChurnKilledSloMissIsAttributed) {
  ProvenanceGuard guard;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  SimConfig config;
  config.provenance = SimConfig::ProvenanceMode::kOn;
  SimMetrics metrics = RunChurnSim(config);
  ASSERT_GE(metrics.failure_kills, 1);
  ASSERT_FALSE(metrics.outcomes[0].MetDeadline());

  std::vector<ProvenanceRecord> records = recorder.Snapshot();
  EXPECT_FALSE(RecordsOfKind(records, ProvKind::kArrival).empty());
  EXPECT_FALSE(RecordsOfKind(records, ProvKind::kStart).empty());
  std::vector<ProvenanceRecord> kills =
      RecordsOfKind(records, ProvKind::kFailureKill);
  ASSERT_FALSE(kills.empty());
  EXPECT_EQ(kills[0].job, 1);
  JsonValue kill_detail;
  ASSERT_TRUE(JsonParse(kills[0].detail, &kill_detail));
  EXPECT_EQ(kill_detail.IntOr("node", -1), 0);
  EXPECT_GE(kill_detail.IntOr("eligible_at", -1), 30);

  std::vector<ProvenanceRecord> misses =
      RecordsOfKind(records, ProvKind::kSloMiss);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].job, 1);
  EXPECT_EQ(misses[0].label, "churn-killed");
  JsonValue evidence;
  ASSERT_TRUE(JsonParse(misses[0].detail, &evidence));
  EXPECT_GE(evidence.IntOr("kills", 0), 1);
  // Attribution is also directly queryable.
  EXPECT_EQ(recorder.AttributeSloMiss(1), SloMissCause::kChurnKilled);
}

TEST(SimProvenanceTest, ExportsJsonlAndExplainReportsAnswer) {
  ProvenanceGuard guard;
  const char* path = "provenance_test_export.jsonl";
  SimConfig config;
  config.provenance_jsonl_path = path;  // kAuto: path turns the recorder on
  RunChurnSim(config);

  ProvLog log;
  std::string error;
  ASSERT_TRUE(LoadProvenanceJsonl(path, &log, &error)) << error;
  EXPECT_EQ(log.malformed_lines, 0u);
  ASSERT_FALSE(log.events.empty());
  // Every line parsed back with a known kind and monotone seq.
  for (size_t i = 1; i < log.events.size(); ++i) {
    EXPECT_LT(log.events[i - 1].seq, log.events[i].seq);
  }

  std::string job_report = ExplainJob(log, 1);
  EXPECT_NE(job_report.find("offered"), std::string::npos);
  EXPECT_NE(job_report.find("slo-miss"), std::string::npos);
  std::string miss_report = ExplainSloMisses(log);
  EXPECT_NE(miss_report.find("churn-killed"), std::string::npos);
  EXPECT_NE(miss_report.find("job 1"), std::string::npos);
  EXPECT_FALSE(ExplainCycle(log, 0).empty());
  EXPECT_FALSE(ExplainSummary(log).empty());
  // Unknown job still gets a non-empty answer.
  EXPECT_FALSE(ExplainJob(log, 999).empty());

  // Tolerant parsing: a torn trailing line is counted, not fatal.
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  ProvLog torn = ParseProvenanceJsonl(buf.str() + "{\"kind\": \"arr");
  EXPECT_EQ(torn.malformed_lines, 1u);
  EXPECT_EQ(torn.events.size(), log.events.size());
  std::remove(path);
}

TEST(SimProvenanceTest, ReplayRecordsSurfaceDuringRecovery) {
  ProvenanceGuard guard;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, 2, 60, 600, SloClass::kBestEffort),
                        MakeJob(2, 2, 60, 600, SloClass::kBestEffort, 8)};
  ApplyAdmission(cluster, jobs);
  SimConfig config;
  config.provenance = SimConfig::ProvenanceMode::kOn;
  config.scheduler_crashes = {{/*at=*/10, CrashPhase::kAfterCommit}};
  TetriSchedConfig sched_config = ExactConfig();
  config.policy_factory = [&cluster, sched_config]() {
    return std::make_unique<TetriScheduler>(cluster, sched_config);
  };
  TetriScheduler scheduler(cluster, sched_config);
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  ASSERT_EQ(metrics.scheduler_crashes, 1);

  std::vector<ProvenanceRecord> records = recorder.Snapshot();
  std::vector<ProvenanceRecord> crashes =
      RecordsOfKind(records, ProvKind::kCrash);
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].label, ToString(CrashPhase::kAfterCommit));
  std::vector<ProvenanceRecord> recoveries =
      RecordsOfKind(records, ProvKind::kRecovery);
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_EQ(static_cast<int>(recoveries[0].value), metrics.journal_replayed);
  // One kReplay per replayed journal record, labeled with the record kind.
  std::vector<ProvenanceRecord> replays =
      RecordsOfKind(records, ProvKind::kReplay);
  EXPECT_EQ(static_cast<int>(replays.size()), metrics.journal_replayed);
  for (const ProvenanceRecord& replay : replays) {
    EXPECT_FALSE(replay.label.empty());
  }
}

// --- Crash safety of the span tree (satellite) -------------------------------

TEST(SimProvenanceTest, CrashMidCycleLeavesNoTornSpanTree) {
  ProvenanceGuard guard;
  SetObservabilityEnabled(false);
  const char* path = "provenance_test_crash_trace.json";
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs{MakeJob(1, 2, 60, 600, SloClass::kBestEffort),
                        MakeJob(2, 2, 60, 600, SloClass::kBestEffort, 8)};
  ApplyAdmission(cluster, jobs);
  SimConfig config;
  config.trace_json_path = path;
  // The crash hook throws out of the middle of the solve span; RAII span
  // guards must still close every open span during unwinding.
  config.scheduler_crashes = {{/*at=*/6, CrashPhase::kSolve}};
  TetriSchedConfig sched_config = ExactConfig();
  config.policy_factory = [&cluster, sched_config]() {
    return std::make_unique<TetriScheduler>(cluster, sched_config);
  };
  TetriScheduler scheduler(cluster, sched_config);
  Simulator sim(cluster, scheduler, jobs, config);
  SimMetrics metrics = sim.Run();
  ASSERT_EQ(metrics.scheduler_crashes, 1);
  EXPECT_FALSE(span_internal::SpanCrashHookArmed());

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonParse(buf.str(), &value, &error)) << error;
  const JsonValue* events = value.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items.empty());
  bool saw_cycle = false;
  for (const JsonValue& event : events->items) {
    // A torn span would export with a missing/negative duration.
    EXPECT_FALSE(event.StringOr("name", "").empty());
    EXPECT_GE(event.IntOr("dur", -1), 0);
    EXPECT_GE(event.IntOr("ts", -1), 0);
    saw_cycle |= event.StringOr("name", "") == "scheduler.cycle";
  }
  EXPECT_TRUE(saw_cycle);
  std::remove(path);
}

// --- Provenance-off is byte-identical ----------------------------------------

std::string RunScheduleCsv(const SimConfig& base_config) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i + 1, 1 + i % 3, 40 + 10 * (i % 2), 2000,
                           SloClass::kBestEffort, 5 * i));
    jobs[i].wants_reservation = i % 2 == 0;
  }
  ApplyAdmission(cluster, jobs);
  TetriScheduler scheduler(cluster, ExactConfig());
  SimTrace trace;
  SimConfig config = base_config;
  config.trace = &trace;
  Simulator sim(cluster, scheduler, jobs, config);
  sim.Run();
  return trace.ToCsv();
}

// Drops the trailing wall-clock column so only decisions are compared.
std::string StripTimingColumn(const std::string& csv) {
  std::istringstream in(csv);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    out += line.substr(0, line.rfind(','));
    out += '\n';
  }
  return out;
}

TEST(SimProvenanceTest, RecorderOnDoesNotChangeSchedule) {
  ProvenanceGuard guard;
  ProvenanceRecorder::Global().SetEnabled(false);
  SimConfig off;
  off.provenance = SimConfig::ProvenanceMode::kOff;
  std::string baseline = StripTimingColumn(RunScheduleCsv(off));

  SimConfig on;
  on.provenance = SimConfig::ProvenanceMode::kOn;
  std::string with_recorder = StripTimingColumn(RunScheduleCsv(on));
  EXPECT_EQ(baseline, with_recorder);
  // Run() restored the recorder state it flipped.
  EXPECT_FALSE(ProvenanceRecorder::Global().enabled());

  SimConfig exported;
  exported.provenance_jsonl_path = "provenance_test_identical.jsonl";
  std::string with_export = StripTimingColumn(RunScheduleCsv(exported));
  EXPECT_EQ(baseline, with_export);
  std::remove("provenance_test_identical.jsonl");
}

}  // namespace
}  // namespace tetrisched
