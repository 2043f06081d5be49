#include "src/core/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "src/common/bytes.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/compiler/compiler.h"
#include "src/core/plan_check.h"
#include "src/obs/provenance.h"
#include "src/solver/certify.h"

namespace tetrisched {
namespace {

using Clock = std::chrono::steady_clock;

// Fixed cycle-budget tuning (DESIGN.md §13): the share of the budget held
// back for commit, and the rel_gap a solve relaxes to at AIMD level 0.
constexpr double kCommitReserve = 0.10;
constexpr double kRelaxedRelGap = 0.25;

// Registry-backed cycle-phase instruments (DESIGN.md §10). Pointers are
// resolved once and cached; instrument updates are lock-free.
struct CycleInstruments {
  Histogram* cycle_ms;
  Histogram* availability_ms;
  Histogram* strl_gen_ms;
  Histogram* compile_ms;
  Histogram* solve_ms;
  Histogram* commit_ms;
  Histogram* fallback_ms;
  Counter* cycles;
  Counter* fallback_cycles;
  Counter* skipped_cycles;
  Counter* validator_rejects;
  Counter* dropped_jobs;
  // Cycle budget / adaptive plan-ahead instruments (DESIGN.md §13).
  Counter* budget_blown_cycles;
  Counter* plan_ahead_adaptations;
  Gauge* effective_plan_ahead;
  // Degradation-ladder and preemption audit (one rung counter fires per
  // non-empty cycle; rung 1/2 refine the existing fallback/skipped pair).
  Counter* rung0_cycles;
  Counter* rung1_cycles;
  Counter* rung2_cycles;
  Counter* preemptions;
};

CycleInstruments& Instruments() {
  MetricsRegistry& registry = GlobalMetrics();
  static CycleInstruments instruments{
      registry.GetHistogram("tetrisched_cycle_ms"),
      registry.GetHistogram("tetrisched_phase_availability_ms"),
      registry.GetHistogram("tetrisched_phase_strl_gen_ms"),
      registry.GetHistogram("tetrisched_phase_compile_ms"),
      registry.GetHistogram("tetrisched_phase_solve_ms"),
      registry.GetHistogram("tetrisched_phase_commit_ms"),
      registry.GetHistogram("tetrisched_phase_fallback_ms"),
      registry.GetCounter("tetrisched_cycles_total"),
      registry.GetCounter("tetrisched_fallback_cycles_total"),
      registry.GetCounter("tetrisched_skipped_cycles_total"),
      registry.GetCounter("tetrisched_validator_rejects_total"),
      registry.GetCounter("tetrisched_dropped_jobs_total"),
      registry.GetCounter("tetrisched_budget_blown_cycles_total"),
      registry.GetCounter("tetrisched_plan_ahead_adaptations_total"),
      registry.GetGauge("tetrisched_effective_plan_ahead"),
      registry.GetCounter("tetrisched_ladder_rung0_cycles_total"),
      registry.GetCounter("tetrisched_ladder_rung1_cycles_total"),
      registry.GetCounter("tetrisched_ladder_rung2_cycles_total"),
      registry.GetCounter("tetrisched_preemptions_total"),
  };
  return instruments;
}

// Priority order for the greedy (NG) policy's three FIFO queues (paper §6.3).
int QueueRank(const Job& job) {
  switch (job.slo_class) {
    case SloClass::kSloAccepted:
      return 0;
    case SloClass::kSloUnreserved:
      return 1;
    case SloClass::kBestEffort:
      return 2;
  }
  return 2;
}

// Emits one kOffered provenance record per job with the full alternative
// set the STRL generator produced (tag, kind, start, duration, k, value).
// Callers gate on recorder.enabled().
void RecordOffers(ProvenanceRecorder& recorder, SimTime now,
                  const OptionRegistry& registry,
                  const std::vector<const Job*>& pending) {
  std::map<JobId, int> job_k;
  for (const Job* job : pending) {
    job_k[job->id] = job->k;
  }
  std::map<JobId, JsonArr> offers;
  for (const auto& [tag, option] : registry) {
    offers[option.job].AddRaw(JsonObj()
                                  .Field("tag", tag)
                                  .Field("kind",
                                         OptionKindName(option.option_kind))
                                  .Field("start", option.start)
                                  .Field("duration", option.est_duration)
                                  .Field("k", job_k[option.job])
                                  .Field("value", option.value)
                                  .Field("preferred", option.preferred)
                                  .str());
  }
  for (auto& [job, alternatives] : offers) {
    ProvenanceRecord record;
    record.kind = ProvKind::kOffered;
    record.time = now;
    record.job = job;
    record.value = static_cast<double>(alternatives.size());
    record.detail = alternatives.str();
    recorder.Record(std::move(record));
  }
}

// Emits kCulled records for jobs the generator dropped (no positive-value
// option within the window).
void RecordCulls(ProvenanceRecorder& recorder, SimTime now,
                 const std::vector<JobId>& dropped) {
  for (JobId job : dropped) {
    ProvenanceRecord record;
    record.kind = ProvKind::kCulled;
    record.time = now;
    record.job = job;
    record.label = "no-positive-value-option";
    recorder.Record(std::move(record));
  }
}

// Min free nodes of `partition` across the slices overlapped by
// [start, start + duration), clipped to the grid.
int FreeOver(const AvailabilityGrid& availability, PartitionId partition,
             SimTime start, SimDuration duration) {
  auto [first, last] = availability.grid().ClippedSliceRange(start, duration);
  if (first >= last) {
    return 0;
  }
  int free = std::numeric_limits<int>::max();
  for (int slice = first; slice < last; ++slice) {
    free = std::min(free, availability.avail(partition, slice));
  }
  return std::max(0, free);
}

}  // namespace

TetriSchedConfig TetriSchedConfig::Full(SimDuration plan_ahead) {
  TetriSchedConfig config;
  config.plan_ahead = plan_ahead;
  return config;
}

TetriSchedConfig TetriSchedConfig::NoHeterogeneity(SimDuration plan_ahead) {
  TetriSchedConfig config;
  config.plan_ahead = plan_ahead;
  config.heterogeneity_aware = false;
  return config;
}

TetriSchedConfig TetriSchedConfig::NoGlobal(SimDuration plan_ahead) {
  TetriSchedConfig config;
  config.plan_ahead = plan_ahead;
  config.global = false;
  return config;
}

TetriSchedConfig TetriSchedConfig::NoPlanAhead() {
  TetriSchedConfig config;
  config.plan_ahead = config.quantum;  // single-slice window: now or never
  return config;
}

TetriScheduler::TetriScheduler(const Cluster& cluster, TetriSchedConfig config)
    : cluster_(cluster),
      config_(config),
      generator_(cluster, StrlGenOptions{config.plan_ahead, config.quantum,
                                         config.heterogeneity_aware,
                                         config.be_decay_horizon}),
      effective_plan_ahead_(config.plan_ahead),
      effective_rel_gap_(config.milp.rel_gap) {}

const char* TetriScheduler::name() const {
  if (!config_.heterogeneity_aware) {
    return "TetriSched-NH";
  }
  if (!config_.global) {
    return "TetriSched-NG";
  }
  if (config_.plan_ahead <= config_.quantum) {
    return "TetriSched-NP";
  }
  return "TetriSched";
}

std::string TetriScheduler::ExportDurableState() const {
  ByteWriter writer;
  writer.PutU32(static_cast<uint32_t>(previous_plan_.size()));
  for (const auto& [tag, counts] : previous_plan_) {
    writer.PutI64(tag);
    writer.PutU32(static_cast<uint32_t>(counts.size()));
    for (const auto& [partition, count] : counts) {
      writer.PutI64(partition);
      writer.PutI64(count);
    }
  }
  // AIMD overload-controller state (DESIGN.md §13), appended after the
  // warm-start map so pre-budget blobs (which stop at the map) still import.
  writer.PutDouble(aimd_.level());
  writer.PutU32(static_cast<uint32_t>(aimd_.blown_streak()));
  writer.PutU32(static_cast<uint32_t>(aimd_.healthy_streak()));
  return writer.str();
}

void TetriScheduler::ImportDurableState(std::string_view blob) {
  previous_plan_.clear();
  if (blob.empty()) {
    return;  // empty export: no surviving plan
  }
  ByteReader reader(blob);
  LeafGrants plan;
  uint32_t num_tags = reader.GetU32();
  for (uint32_t i = 0; reader.ok() && i < num_tags; ++i) {
    LeafTag tag = reader.GetI64();
    uint32_t num_counts = reader.GetU32();
    std::map<PartitionId, int>& counts = plan[tag];
    for (uint32_t j = 0; reader.ok() && j < num_counts; ++j) {
      PartitionId partition = static_cast<PartitionId>(reader.GetI64());
      counts[partition] = static_cast<int>(reader.GetI64());
    }
  }
  // Blobs from before the budget subsystem end at the warm-start map; treat
  // a missing suffix as "never adapted" rather than corruption.
  bool has_aimd = false;
  double level = 1.0;
  uint32_t blown_streak = 0;
  uint32_t healthy_streak = 0;
  if (reader.ok() && !reader.AtEnd()) {
    level = reader.GetDouble();
    blown_streak = reader.GetU32();
    healthy_streak = reader.GetU32();
    has_aimd = true;
  }
  if (!reader.ok() || !reader.AtEnd()) {
    TETRI_LOG(kWarning)
        << "TetriScheduler: discarding malformed durable state ("
        << blob.size() << " bytes); next solve starts cold";
    return;
  }
  previous_plan_ = std::move(plan);
  if (has_aimd) {
    aimd_.RestoreState(level, static_cast<int>(blown_streak),
                       static_cast<int>(healthy_streak));
    // Re-derive the adapted window/gap so a recovered scheduler resumes on
    // the same plan-ahead trajectory as the crashed one. At level 1.0 this
    // is the identity, so non-adapted recoveries stay bit-identical.
    ApplyAimdLevel();
  }
}

TimeGrid TetriScheduler::MakeGrid(SimTime now) const {
  TimeGrid grid;
  grid.start = QuantizeDown(now, config_.quantum);
  grid.quantum = config_.quantum;
  // The adapted window (== config_.plan_ahead unless the AIMD controller
  // shrank it under overload) bounds both the grid and STRL generation.
  SimTime horizon = now + effective_plan_ahead_;
  grid.num_slices = static_cast<int>(
      QuantaCovering(horizon - grid.start, config_.quantum));
  return grid;
}

AvailabilityGrid TetriScheduler::BuildAvailability(
    SimTime now, const std::vector<RunningHold>& running) const {
  AvailabilityGrid availability(cluster_, MakeGrid(now));
  for (const RunningHold& hold : running) {
    // Optimistic completion with upward adjustment: a job observed to run
    // past its estimate is assumed to hold resources one more quantum
    // (paper §7.1: adjust under-estimates upward when observed too low).
    SimTime expected_end =
        std::max(hold.expected_end, now + config_.quantum);
    for (const auto& [partition, count] : hold.counts) {
      availability.Reduce(partition, {now, expected_end}, count);
    }
  }
  return availability;
}

TetriScheduler::Decision TetriScheduler::OnCycle(
    SimTime now, const std::vector<const Job*>& pending,
    const std::vector<RunningHold>& running) {
  if (pending.empty()) {
    previous_plan_.clear();
    return {};
  }
  // One timer per phase: each ScopedSpan below feeds its CycleStats field
  // (or histogram) and, when observability is on, its span (DESIGN.md §10).
  Decision decision;
  double cycle_seconds = 0.0;
  std::optional<ScopedSpan> cycle(std::in_place, "scheduler.cycle",
                                  &cycle_seconds);
  cycle_start_ = cycle->start();  // anchors CycleMilpOptions' remaining budget
  Instruments().cycles->Increment();
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  if (recorder.enabled()) {
    // A cycle planned under an AIMD-shrunken window is degraded: jobs it
    // touches inherit the taint for budget-degraded SLO-miss attribution.
    recorder.BeginCycle(now, effective_plan_ahead_ < config_.plan_ahead);
  }

  double availability_seconds = 0.0;
  AvailabilityGrid availability = [&] {
    ScopedSpan phase("scheduler.availability", &availability_seconds);
    return BuildAvailability(now, running);
  }();
  Instruments().availability_ms->Observe(1e3 * availability_seconds);
  std::set<JobId> planned;
  decision = config_.global ? GlobalCycle(now, pending, availability, &planned)
                            : GreedyCycle(now, pending, availability);

  if (config_.enable_preemption && config_.global) {
    // Rescue preemption (extension): an accepted SLO job that received no
    // allocation at all and is about to run out of feasible start times can
    // reclaim capacity from the youngest running best-effort containers.
    const Job* stranded = nullptr;
    for (const Job* job : pending) {
      if (job->slo_class != SloClass::kSloAccepted ||
          planned.count(job->id) != 0) {
        continue;
      }
      SimTime latest_start =
          job->deadline - job->EstimatedRuntime(/*preferred=*/true);
      if (latest_start >= now &&
          latest_start < now + 2 * config_.quantum) {
        stranded = job;
        break;
      }
    }
    if (stranded != nullptr) {
      std::vector<const RunningHold*> victims;
      for (const RunningHold& hold : running) {
        if (hold.slo_class == SloClass::kBestEffort) {
          victims.push_back(&hold);
        }
      }
      std::sort(victims.begin(), victims.end(),
                [](const RunningHold* a, const RunningHold* b) {
                  return a->start > b->start;  // youngest first
                });
      std::set<JobId> preempted;
      int freed = 0;
      for (const RunningHold* victim : victims) {
        if (freed >= stranded->k) {
          break;
        }
        preempted.insert(victim->job);
        for (const auto& [partition, count] : victim->counts) {
          freed += count;
        }
      }
      if (freed >= stranded->k && !preempted.empty()) {
        std::vector<RunningHold> surviving;
        for (const RunningHold& hold : running) {
          if (preempted.count(hold.job) == 0) {
            surviving.push_back(hold);
          }
        }
        AvailabilityGrid retry = BuildAvailability(now, surviving);
        decision = GlobalCycle(now, pending, retry, &planned);
        decision.preempt.assign(preempted.begin(), preempted.end());
        Instruments().preemptions->Increment(
            static_cast<int64_t>(preempted.size()));
        if (recorder.enabled()) {
          JsonArr victims_json;
          for (JobId victim : preempted) {
            victims_json.Add(static_cast<int64_t>(victim));
          }
          ProvenanceRecord record;
          record.kind = ProvKind::kPreemptRescue;
          record.time = now;
          record.job = stranded->id;
          record.label = "youngest-be-first";
          record.value = static_cast<double>(freed);
          record.detail =
              JsonObj().FieldRaw("victims", victims_json.str()).str();
          recorder.Record(std::move(record));
        }
      }
    }
  }

  // Degradation ladder (DESIGN.md §9): MILP -> greedy first-fit -> skip.
  // Rung 2: the solver ended with nothing better than the trivial empty
  // plan, so replan the cycle with the solver-free first-fit pass.
  auto first_fit = [&]() {
    double fallback_seconds = 0.0;
    std::vector<Placement> placements = [&] {
      ScopedSpan phase("scheduler.fallback", &fallback_seconds);
      std::set<JobId> dropped(decision.drop.begin(), decision.drop.end());
      std::vector<const Job*> eligible;
      for (const Job* job : pending) {
        if (dropped.count(job->id) == 0) {
          eligible.push_back(job);
        }
      }
      AvailabilityGrid fresh = BuildAvailability(now, running);
      return FirstFitPass(now, eligible, fresh);
    }();
    Instruments().fallback_ms->Observe(1e3 * fallback_seconds);
    return placements;
  };
  if (decision.stats.solve_status == SolveStatus::kNoIncumbent) {
    decision.start_now = first_fit();
    decision.preempt.clear();
    decision.stats.used_fallback = true;
    decision.stats.ladder_rung = 1;
    previous_plan_.clear();  // nothing from the failed solve is trustworthy
    if (recorder.enabled()) {
      ProvenanceRecord record;
      record.kind = ProvKind::kFallback;
      record.time = now;
      record.label = "no-incumbent";
      record.value = 1.0;  // ladder rung entered
      recorder.Record(std::move(record));
    }
  }

  // Pre-commit plan validation (defense in depth): a plan violating ledger
  // invariants drops to the next ladder rung instead of being committed.
  auto validate = [&]() {
    std::vector<RunningHold> surviving;
    if (decision.preempt.empty()) {
      surviving = running;
    } else {
      std::set<JobId> preempted(decision.preempt.begin(),
                                decision.preempt.end());
      for (const RunningHold& hold : running) {
        if (preempted.count(hold.job) == 0) {
          surviving.push_back(hold);
        }
      }
    }
    return ValidatePlan(cluster_, pending, surviving, decision.start_now);
  };
  std::vector<PlanViolation> violations = [&] {
    TETRI_SPAN("scheduler.validate");
    return validate();
  }();
  if (!violations.empty()) {
    for (const PlanViolation& violation : violations) {
      TETRI_LOG(kWarning) << "plan validation failed (job " << violation.job
                          << "): " << violation.reason;
    }
    decision.stats.validator_rejects += static_cast<int>(violations.size());
    previous_plan_.clear();
    if (!decision.stats.used_fallback) {
      decision.preempt.clear();
      decision.start_now = first_fit();
      decision.stats.used_fallback = true;
      decision.stats.ladder_rung = 1;
      if (recorder.enabled()) {
        ProvenanceRecord record;
        record.kind = ProvKind::kFallback;
        record.time = now;
        record.label = "validator-reject";
        record.value = 1.0;
        recorder.Record(std::move(record));
      }
      violations = validate();
      decision.stats.validator_rejects += static_cast<int>(violations.size());
    }
    if (!violations.empty()) {
      // Rung 3: even the greedy plan is unsafe; schedule nothing and
      // replan next cycle.
      decision.start_now.clear();
      decision.stats.ladder_rung = 2;
      if (recorder.enabled()) {
        ProvenanceRecord record;
        record.kind = ProvKind::kFallback;
        record.time = now;
        record.label = "validator-reject";
        record.value = 2.0;  // cycle skipped entirely
        recorder.Record(std::move(record));
      }
    }
  }

  decision.stats.pending_count = static_cast<int>(pending.size());
  decision.stats.scheduled_count = static_cast<int>(decision.start_now.size());
  decision.stats.dropped_count = static_cast<int>(decision.drop.size());
  cycle.reset();  // closes the cycle's span and timer
  decision.stats.cycle_seconds = cycle_seconds;

  CycleInstruments& instruments = Instruments();
  const double budget_seconds = config_.budget.budget_seconds;
  if (budget_seconds > 0.0) {
    // Budget accounting + AIMD adaptation (DESIGN.md §13). Only the solve
    // is limited, via the deadline in CycleMilpOptions().
    decision.stats.budget_seconds = budget_seconds;
    decision.stats.budget_blown = cycle_seconds > budget_seconds;
    if (decision.stats.budget_blown) {
      instruments.budget_blown_cycles->Increment();
    }
    decision.stats.plan_ahead_adapted =
        aimd_.Observe(decision.stats.budget_blown);
    if (decision.stats.plan_ahead_adapted != 0) {
      ApplyAimdLevel();
      instruments.plan_ahead_adaptations->Increment();
      TETRI_LOG(kInfo) << "plan-ahead "
                       << (decision.stats.plan_ahead_adapted < 0 ? "shrunk"
                                                                 : "restored")
                       << " to " << effective_plan_ahead_
                       << " (AIMD level " << aimd_.level() << ", rel_gap "
                       << effective_rel_gap_ << ")";
      if (recorder.enabled()) {
        ProvenanceRecord record;
        record.kind = ProvKind::kPlanAheadAdapt;
        record.time = now;
        record.label =
            decision.stats.plan_ahead_adapted < 0 ? "shrunk" : "restored";
        record.value = static_cast<double>(effective_plan_ahead_);
        record.detail = JsonObj()
                            .Field("aimd_level", aimd_.level())
                            .Field("rel_gap", effective_rel_gap_)
                            .str();
        recorder.Record(std::move(record));
      }
    }
  }
  decision.stats.effective_plan_ahead = effective_plan_ahead_;
  decision.stats.effective_rel_gap =
      budget_seconds > 0.0 ? effective_rel_gap_ : config_.milp.rel_gap;

  instruments.cycle_ms->Observe(1e3 * decision.stats.cycle_seconds);
  instruments.strl_gen_ms->Observe(1e3 * decision.stats.strl_gen_seconds);
  instruments.compile_ms->Observe(1e3 * decision.stats.compile_seconds);
  instruments.solve_ms->Observe(1e3 * decision.stats.solver_seconds);
  instruments.commit_ms->Observe(1e3 * decision.stats.commit_seconds);
  if (decision.stats.ladder_rung > 0) {
    instruments.fallback_cycles->Increment();
  }
  if (decision.stats.ladder_rung == 2) {
    instruments.skipped_cycles->Increment();
  }
  switch (decision.stats.ladder_rung) {
    case 0:
      instruments.rung0_cycles->Increment();
      break;
    case 1:
      instruments.rung1_cycles->Increment();
      break;
    default:
      instruments.rung2_cycles->Increment();
      break;
  }
  if (decision.stats.validator_rejects > 0) {
    instruments.validator_rejects->Increment(decision.stats.validator_rejects);
  }
  if (!decision.drop.empty()) {
    instruments.dropped_jobs->Increment(
        static_cast<int64_t>(decision.drop.size()));
  }
  return decision;
}

TetriScheduler::Decision TetriScheduler::GlobalCycle(
    SimTime now, const std::vector<const Job*>& pending,
    AvailabilityGrid& availability, std::set<JobId>* planned) {
  Decision decision;
  OptionRegistry registry;

  // Expand every pending job; jobs with no positive-value option are dropped
  // (their SLO is no longer reachable).
  std::vector<StrlExpr> job_exprs;
  {
    ScopedSpan phase("scheduler.strl_gen", &decision.stats.strl_gen_seconds);
    for (const Job* job : pending) {
      std::optional<StrlExpr> expr =
          generator_.GenerateJobExpr(*job, now, &registry);
      if (expr.has_value()) {
        job_exprs.push_back(std::move(*expr));
      } else {
        decision.drop.push_back(job->id);
      }
    }
  }
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  if (recorder.enabled()) {
    RecordOffers(recorder, now, registry, pending);
    RecordCulls(recorder, now, decision.drop);
  }
  if (job_exprs.empty()) {
    previous_plan_.clear();
    return decision;
  }

  CompiledStrl compiled = [&] {
    ScopedSpan phase("scheduler.compile", &decision.stats.compile_seconds);
    StrlExpr root = job_exprs.size() == 1 ? std::move(job_exprs[0])
                                          : Sum(std::move(job_exprs));
    return StrlCompiler(availability).Compile(root);
  }();
  decision.stats.milp_vars = compiled.model().num_vars();
  decision.stats.milp_constraints = compiled.model().num_constraints();

  // Warm start from the surviving part of last cycle's plan.
  std::vector<double> warm;
  if (config_.enable_warm_start && !previous_plan_.empty()) {
    warm = compiled.BuildWarmStart(previous_plan_);
  }

  const MilpOptions milp_options = CycleMilpOptions();
  MilpSolver solver(compiled.model(), milp_options);
  MilpResult result = [&] {
    TETRI_SPAN("scheduler.solve");
    return solver.Solve(warm);
  }();
  decision.stats.solver_seconds = result.solve_seconds;
  decision.stats.milp_nodes = result.nodes;
  decision.stats.milp_components = result.components;
  decision.stats.decompose_ms = result.decompose_ms;
  decision.stats.solve_status = result.solve_status;
  if (recorder.enabled()) {
    ProvenanceRecord record;
    record.kind = ProvKind::kSolve;
    record.time = now;
    record.label = ToString(result.solve_status);
    record.value = result.objective;
    record.detail = JsonObj()
                        .Field("vars", compiled.model().num_vars())
                        .Field("constraints",
                               compiled.model().num_constraints())
                        .Field("nodes", result.nodes)
                        .Field("components", result.components)
                        .Field("solve_seconds", result.solve_seconds)
                        .str();
    recorder.Record(std::move(record));
  }
  previous_plan_.clear();
  if (!result.HasSolution()) {
    // OnCycle reads stats.solve_status and replans the cycle greedily.
    TETRI_LOG(kWarning) << "MILP produced no schedule ("
                        << ToString(result.solve_status) << ")";
    return decision;
  }

  // Independent plan certifier (certify.h): re-check the incumbent against
  // the model before committing anything derived from it. A reject demotes
  // the cycle to kNoIncumbent, which sends OnCycle down the greedy rung.
  if (result.solve_status != SolveStatus::kNoIncumbent) {
    CertifyReport report = [&] {
      TETRI_SPAN("scheduler.certify");
      return CertifyPlan(compiled.model(), result, milp_options);
    }();
    if (!report.ok) {
      TETRI_LOG(kWarning) << "plan certifier rejected the incumbent: "
                          << report.failure;
      decision.stats.certifier_rejects += 1;
      decision.stats.solve_status = SolveStatus::kNoIncumbent;
      if (recorder.enabled()) {
        ProvenanceRecord record;
        record.kind = ProvKind::kCertifierReject;
        record.time = now;
        record.label = report.failure;
        record.value = static_cast<double>(report.violated_rows);
        recorder.Record(std::move(record));
      }
      return decision;
    }
  }

  // Commit only the allocations starting now; remember deferred choices as
  // next cycle's warm start.
  std::optional<ScopedSpan> commit(std::in_place, "scheduler.commit",
                                   &decision.stats.commit_seconds);
  std::map<JobId, Placement> starting;
  std::vector<StrlAllocation> allocations =
      compiled.ExtractAllocations(result.values);
  for (const StrlAllocation& alloc : allocations) {
    auto option_it = registry.find(alloc.tag);
    if (option_it == registry.end()) {
      continue;  // untagged leaf (not produced by the generator)
    }
    const JobOption& option = option_it->second;
    if (planned != nullptr) {
      planned->insert(option.job);
    }
    if (recorder.enabled()) {
      ProvenanceRecord record;
      record.kind = option.start > now ? ProvKind::kDeferred
                                       : ProvKind::kChosen;
      record.time = now;
      record.job = option.job;
      record.label = OptionKindName(option.option_kind);
      record.value = option.value;  // this leaf's objective contribution
      record.detail = JsonObj()
                          .Field("tag", alloc.tag)
                          .Field("start", option.start)
                          .Field("duration", option.est_duration)
                          .Field("nodes", alloc.total_nodes())
                          .Field("preferred", option.preferred)
                          .str();
      recorder.Record(std::move(record));
    }
    if (option.start > now) {
      previous_plan_[alloc.tag] = alloc.counts;
      continue;
    }
    Placement& placement = starting[option.job];
    placement.job = option.job;
    placement.est_duration = option.est_duration;
    placement.preferred_belief = option.preferred;
    placement.value = option.value;
    for (const auto& [partition, count] : alloc.counts) {
      placement.counts[partition] += count;
    }
  }
  for (auto& [job, placement] : starting) {
    decision.start_now.push_back(std::move(placement));
  }

  if (recorder.enabled()) {
    // Rejected jobs: offered alternatives but the incumbent allocated
    // nothing. Classify each via the saturated supply rows of the incumbent:
    // if every alternative was either culled at compile time (zero headroom)
    // or touches a binding row, the job was blocked by capacity; otherwise
    // it was outbid by higher-value jobs.
    std::set<JobId> allocated;
    for (const StrlAllocation& alloc : allocations) {
      auto option_it = registry.find(alloc.tag);
      if (option_it != registry.end()) {
        allocated.insert(option_it->second.job);
      }
    }
    std::map<JobId, std::vector<LeafTag>> job_tags;
    for (const auto& [tag, option] : registry) {
      job_tags[option.job].push_back(tag);
    }
    std::vector<SupplyRowRef> binding =
        compiled.BindingSupplyRows(result.values);
    for (const auto& [job, tags] : job_tags) {
      if (allocated.count(job) != 0) {
        continue;
      }
      int blocked = 0;
      JsonArr rows_json;
      std::set<ConstraintId> seen_rows;
      for (LeafTag tag : tags) {
        bool tag_blocked = compiled.LeafCulledAtCompile(tag);
        if (!tag_blocked) {
          for (const SupplyRowRef& row :
               compiled.RowsTouchingLeaf(tag, binding)) {
            tag_blocked = true;
            if (seen_rows.insert(row.row).second && rows_json.size() < 8) {
              rows_json.AddRaw(JsonObj()
                                   .Field("partition", row.partition)
                                   .Field("slice_start", row.slice_start)
                                   .Field("rhs", row.rhs)
                                   .Field("activity", row.activity)
                                   .str());
            }
          }
        }
        if (tag_blocked) {
          ++blocked;
        }
      }
      ProvenanceRecord record;
      record.kind = ProvKind::kRejected;
      record.time = now;
      record.job = job;
      record.label =
          blocked == static_cast<int>(tags.size()) ? "capacity" : "outbid";
      record.detail =
          JsonObj()
              .Field("alternatives", static_cast<int64_t>(tags.size()))
              .Field("blocked", blocked)
              .FieldRaw("binding_rows", rows_json.str())
              .str();
      recorder.Record(std::move(record));
    }
  }
  commit.reset();  // closes the span and timer before `decision` is returned
  return decision;
}

MilpOptions TetriScheduler::CycleMilpOptions() const {
  MilpOptions milp = config_.milp;
  const double budget_seconds = config_.budget.budget_seconds;
  if (budget_seconds <= 0.0) {
    return milp;  // budget subsystem off: configured options verbatim
  }
  milp.rel_gap = effective_rel_gap_;
  // Wall-clock left in the cycle budget once earlier phases spent theirs,
  // minus the commit reserve. A cycle that already blew its budget before
  // the solve gets a zero limit -> kNoSolution -> the greedy ladder rung,
  // which is the designed degradation rather than a torn solve.
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - cycle_start_).count();
  const double solve_budget =
      budget_seconds * (1.0 - kCommitReserve) - elapsed;
  milp.time_limit_seconds =
      std::min(milp.time_limit_seconds, std::max(solve_budget, 0.0));
  return milp;
}

void TetriScheduler::ApplyAimdLevel() {
  const double level = aimd_.level();
  // Quantize the shrunk window to whole quanta, flooring at one quantum:
  // level 0 degrades to the paper's NP (now-or-never) configuration.
  const double target = level * static_cast<double>(config_.plan_ahead);
  const int64_t slices = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::llround(target / static_cast<double>(config_.quantum))));
  effective_plan_ahead_ =
      std::min(config_.plan_ahead, slices * config_.quantum);
  generator_.set_plan_ahead(effective_plan_ahead_);
  Instruments().effective_plan_ahead->Set(
      static_cast<double>(effective_plan_ahead_));
  // Interpolate between the configured gap (level 1) and the relaxed
  // overload gap (level 0).
  effective_rel_gap_ =
      kRelaxedRelGap + level * (config_.milp.rel_gap - kRelaxedRelGap);
}

TetriScheduler::Decision TetriScheduler::GreedyCycle(
    SimTime now, const std::vector<const Job*>& pending,
    AvailabilityGrid& availability) {
  Decision decision;
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();

  // Three FIFO queues in priority order: accepted SLO, unreserved SLO, BE.
  std::vector<const Job*> ordered(pending.begin(), pending.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Job* a, const Job* b) {
                     if (QueueRank(*a) != QueueRank(*b)) {
                       return QueueRank(*a) < QueueRank(*b);
                     }
                     return a->submit < b->submit;
                   });

  for (const Job* job : ordered) {
    OptionRegistry registry;
    std::optional<StrlExpr> expr = [&] {
      ScopedSpan phase("scheduler.strl_gen", &decision.stats.strl_gen_seconds);
      return generator_.GenerateJobExpr(*job, now, &registry);
    }();
    if (!expr.has_value()) {
      decision.drop.push_back(job->id);
      if (recorder.enabled()) {
        RecordCulls(recorder, now, {job->id});
      }
      continue;
    }
    if (recorder.enabled()) {
      // The per-job registry holds only this job's tags, so this emits
      // exactly one kOffered record.
      RecordOffers(recorder, now, registry, pending);
    }

    auto reject = [&] {
      if (recorder.enabled()) {
        ProvenanceRecord record;
        record.kind = ProvKind::kRejected;
        record.time = now;
        record.job = job->id;
        record.label = "no-feasible-option";
        recorder.Record(std::move(record));
      }
    };
    std::optional<CompiledStrl> compiled;
    {
      ScopedSpan phase("scheduler.compile", &decision.stats.compile_seconds);
      StrlCompiler compiler(availability);
      // When the compiler would cull every option, the solve could only
      // return the empty plan: skip both. A non-positive time limit still
      // compiles and solves, because it asks MilpSolver for the no-incumbent
      // report that drives the fallback rung.
      if (config_.milp.time_limit_seconds <= 0.0 ||
          compiler.AnyLeafFits(*expr)) {
        compiled.emplace(compiler.Compile(*expr));
      }
    }
    if (!compiled.has_value()) {
      reject();
      continue;
    }
    decision.stats.milp_vars += compiled->model().num_vars();
    decision.stats.milp_constraints += compiled->model().num_constraints();
    MilpSolver solver(compiled->model(), config_.milp);
    MilpResult result = [&] {
      TETRI_SPAN("scheduler.solve");
      return solver.Solve();
    }();
    decision.stats.solver_seconds += result.solve_seconds;
    decision.stats.milp_nodes += result.nodes;
    decision.stats.milp_components =
        std::max(decision.stats.milp_components, result.components);
    decision.stats.decompose_ms += result.decompose_ms;
    decision.stats.solve_status =
        WorstStatus(decision.stats.solve_status, result.solve_status);
    if (!result.HasSolution() || result.objective <= 0.0) {
      reject();
      continue;  // nothing schedulable for this job within the window
    }

    // Commit the chosen option against this cycle's availability so later
    // (lower-priority) jobs cannot double-book it.
    ScopedSpan commit("scheduler.commit", &decision.stats.commit_seconds);
    Placement placement;
    bool starts_now = false;
    for (const StrlAllocation& alloc :
         compiled->ExtractAllocations(result.values)) {
      auto option_it = registry.find(alloc.tag);
      if (option_it == registry.end()) {
        continue;
      }
      const JobOption& option = option_it->second;
      for (const auto& [partition, count] : alloc.counts) {
        availability.Reduce(partition,
                            {alloc.start, alloc.start + alloc.duration},
                            count);
      }
      if (recorder.enabled()) {
        ProvenanceRecord record;
        record.kind = option.start > now ? ProvKind::kDeferred
                                         : ProvKind::kChosen;
        record.time = now;
        record.job = option.job;
        record.label = OptionKindName(option.option_kind);
        record.value = option.value;
        record.detail = JsonObj()
                            .Field("tag", alloc.tag)
                            .Field("start", option.start)
                            .Field("duration", option.est_duration)
                            .Field("nodes", alloc.total_nodes())
                            .Field("preferred", option.preferred)
                            .str();
        recorder.Record(std::move(record));
      }
      if (option.start <= now) {
        starts_now = true;
        placement.job = option.job;
        placement.est_duration = option.est_duration;
        placement.preferred_belief = option.preferred;
        placement.value = option.value;
        for (const auto& [partition, count] : alloc.counts) {
          placement.counts[partition] += count;
        }
      }
    }
    if (starts_now) {
      decision.start_now.push_back(std::move(placement));
    }
  }
  return decision;
}

std::vector<Placement> TetriScheduler::FirstFitPass(
    SimTime now, const std::vector<const Job*>& pending,
    AvailabilityGrid& availability) const {
  std::vector<Placement> placements;

  // Same three FIFO queues as the greedy policy: accepted SLO first.
  std::vector<const Job*> ordered(pending.begin(), pending.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Job* a, const Job* b) {
                     if (QueueRank(*a) != QueueRank(*b)) {
                       return QueueRank(*a) < QueueRank(*b);
                     }
                     return a->submit < b->submit;
                   });

  // Candidate equivalence sets per job in preference order; mirrors the
  // STRL generator's per-type options, minus the plan-ahead dimension.
  struct Candidate {
    PartitionSet partitions;
    bool preferred = false;
  };

  for (const Job* job : ordered) {
    if (config_.heterogeneity_aware && job->type == JobType::kAvailability) {
      // Anti-affinity gang: one task per rack, up to k racks, as many as
      // currently fit (MIN semantics allow a partial gang >= 1).
      SimDuration duration = job->EstimatedRuntime(/*preferred=*/true);
      if (job->deadline != kTimeNever && now + duration > job->deadline) {
        continue;
      }
      std::map<PartitionId, int> take;
      int placed = 0;
      for (RackId rack = 0; rack < cluster_.num_racks() && placed < job->k;
           ++rack) {
        for (PartitionId partition : cluster_.RackPartitions(rack)) {
          if (FreeOver(availability, partition, now, duration) >= 1) {
            ++take[partition];
            ++placed;
            break;
          }
        }
      }
      if (placed < 1) {
        continue;
      }
      Placement placement;
      placement.job = job->id;
      placement.est_duration = duration;
      placement.preferred_belief = true;
      for (const auto& [partition, count] : take) {
        availability.Reduce(partition, {now, now + duration}, count);
      }
      placement.counts = std::move(take);
      placements.push_back(std::move(placement));
      continue;
    }

    std::vector<Candidate> candidates;
    if (!config_.heterogeneity_aware) {
      // NH mode mirrors the generator: whole cluster, conservative runtime.
      candidates.push_back({cluster_.AllPartitions(), false});
    } else {
      switch (job->type) {
        case JobType::kUnconstrained:
          candidates.push_back({cluster_.AllPartitions(), true});
          break;
        case JobType::kGpu:
          candidates.push_back({cluster_.GpuPartitions(), true});
          candidates.push_back({cluster_.AllPartitions(), false});
          break;
        case JobType::kMpi:
          for (RackId rack = 0; rack < cluster_.num_racks(); ++rack) {
            candidates.push_back({cluster_.RackPartitions(rack), true});
          }
          candidates.push_back({cluster_.AllPartitions(), false});
          break;
        case JobType::kDataLocal:
          candidates.push_back({job->preferred_partitions, true});
          candidates.push_back({cluster_.AllPartitions(), false});
          break;
        case JobType::kAvailability:
          break;  // handled above
      }
    }

    for (const Candidate& candidate : candidates) {
      SimDuration duration = job->EstimatedRuntime(candidate.preferred);
      if (job->deadline != kTimeNever && now + duration > job->deadline) {
        continue;  // this placement cannot meet the SLO
      }
      std::map<PartitionId, int> take;
      int remaining = job->k;
      for (PartitionId partition : candidate.partitions) {
        if (remaining == 0) {
          break;
        }
        int grab = std::min(remaining,
                            FreeOver(availability, partition, now, duration));
        if (grab > 0) {
          take[partition] = grab;
          remaining -= grab;
        }
      }
      if (remaining > 0) {
        continue;  // the gang does not fit in this equivalence set
      }
      Placement placement;
      placement.job = job->id;
      placement.est_duration = duration;
      placement.preferred_belief = candidate.preferred;
      for (const auto& [partition, count] : take) {
        availability.Reduce(partition, {now, now + duration}, count);
      }
      placement.counts = std::move(take);
      placements.push_back(std::move(placement));
      break;
    }
  }
  return placements;
}

}  // namespace tetrisched
