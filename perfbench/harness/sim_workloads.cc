// The simulation workload grmix_ng_backlog: TetriSched-NG (one small MILP
// per pending job, in priority order) on GR MIX with a growing queue, where
// STRL generation and compilation take most of each cycle.
//
// A run simulates a fixed set of instances made from the seed (the first
// pass, which yields the deterministic counters and the schedule-quality
// metrics), then repeats the same instances in as many whole passes as fit
// in the measuring time (at least kMinPasses in all). Repeats must reproduce
// the first pass's counters exactly, so cycle k of an instance does the same
// work in every pass, and its time is taken as the median over the passes.
// On a shared host the same cycles ran 1.2-1.8x slower in some passes than
// in others, for seconds at a time; the median keeps a minority of
// disturbed passes from setting a cycle's time.
//
// The traced run instead simulates the instances once with spans on and
// replays every captured cycle input through the layers one public call at
// a time (Replayer), then once more untraced to price the tracing.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/tracer.h"
#include "src/cluster/availability.h"
#include "src/compiler/compiler.h"
#include "src/core/plan_check.h"
#include "src/core/scheduler.h"
#include "src/core/strl_gen.h"
#include "src/sim/simulator.h"
#include "src/solver/milp.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using tetrisched::AvailabilityGrid;
using tetrisched::Cluster;
using tetrisched::CompiledStrl;
using tetrisched::CycleStats;
using tetrisched::Job;
using tetrisched::JobId;
using tetrisched::MilpResult;
using tetrisched::PartitionId;
using tetrisched::Placement;
using tetrisched::RunningHold;
using tetrisched::SchedulerPolicy;
using tetrisched::SimTime;
using tetrisched::SolveStatus;
using tetrisched::TetriSchedConfig;

struct SimWorkload {
  int racks = 4;
  int nodes_per_rack = 4;
  int gpu_racks = 0;
  tetrisched::WorkloadKind kind = tetrisched::WorkloadKind::kGsHet;
  double slowdown = 1.5;
  double target_load = 1.0;
  int jobs_per_instance = 0;
  int instances = 0;
  TetriSchedConfig config;
};

// TetriSched-NG on GR MIX, RC256 (8 racks x 4 nodes), offered 30% above
// capacity so the queue keeps growing over each 300-job stream. Twelve
// streams per pass (one stream's cycle times differ from another's by
// ~20%), sized so that three or more passes fit in a 45 s run. Every solve
// runs on one worker: with the default of one worker per hardware thread
// the node order, and so the schedule, differs between runs of one seed.
// The time limit is set far above any solve so that every solve ends on the
// gap, stall or node limit and the trajectory repeats; the
// wall-clock-limited regime is the service workload's.
std::optional<SimWorkload> MakeWorkload(const std::string& name, bool smoke) {
  if (name != "grmix_ng_backlog") {
    return std::nullopt;
  }
  SimWorkload spec;
  spec.racks = 8;
  spec.nodes_per_rack = 4;
  spec.gpu_racks = 0;
  spec.kind = tetrisched::WorkloadKind::kGrMix;
  spec.slowdown = 1.5;
  spec.target_load = 1.3;
  spec.jobs_per_instance = smoke ? 20 : 300;
  spec.instances = smoke ? 1 : 12;
  spec.config = TetriSchedConfig::NoGlobal(96);
  spec.config.milp.num_threads = 1;
  spec.config.milp.time_limit_seconds = 3600.0;
  return spec;
}

// Whole passes over the instances in every untraced run, so that each
// cycle's time is a median of at least three repeats.
constexpr int kMinPasses = 3;

uint64_t InstanceSeed(uint64_t seed, int instance) {
  return seed * 1000 + static_cast<uint64_t>(instance);
}

using PlacementMap = std::map<JobId, std::map<PartitionId, int>>;

PlacementMap ToMap(const std::vector<Placement>& placements) {
  PlacementMap map;
  for (const Placement& placement : placements) {
    map[placement.job] = placement.counts;
  }
  return map;
}

// Totals over replayed cycles (traced runs only).
struct ReplayTotals {
  int64_t cycles = 0;
  int64_t solves = 0;
  int64_t committed_solves = 0;
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  int64_t components = 0;
  int64_t time_limited = 0;
  int64_t no_incumbent = 0;
  int64_t plan_violations = 0;
  int64_t options = 0;
  int64_t vars = 0;
  int64_t rows = 0;
  int64_t divergent_cycles = 0;
  double max_component_ms = 0.0;  // summed over solves
  double decompose_ms = 0.0;      // summed over solves
  double gap_pct = 0.0;           // summed over solves with an incumbent
  int64_t gap_samples = 0;
};

// Re-runs each live cycle's input (now, pending jobs, running holds) through
// GenerateJobExpr -> Compile -> MilpSolver::Solve -> ValidatePlan with a
// span around each call, in the order TetriScheduler's NG cycle makes them
// (one model per job, in priority order, each commit reducing the shared
// availability grid), and compares the placements with the live decision.
class Replayer {
 public:
  Replayer(const Cluster& cluster, const TetriSchedConfig& config,
           Tracer* tracer)
      : cluster_(cluster),
        config_(config),
        generator_(cluster, tetrisched::StrlGenOptions{
                                config.plan_ahead, config.quantum,
                                config.heterogeneity_aware,
                                config.be_decay_horizon}),
        tracer_(tracer) {}

  void Replay(int64_t cycle, SimTime now,
              const std::vector<const Job*>& pending,
              const std::vector<RunningHold>& running,
              const SchedulerPolicy::Decision& live) {
    if (pending.empty()) {
      return;
    }
    Tracer::Scope span(tracer_, "replay.cycle", cycle);
    ++totals_.cycles;
    AvailabilityGrid availability = [&] {
      Tracer::Scope availability_span(tracer_, "availability", cycle);
      return BuildAvailability(now, running);
    }();
    std::vector<JobId> drops;
    std::vector<Placement> placements =
        GreedyCycle(cycle, now, pending, availability, &drops);
    std::vector<tetrisched::PlanViolation> violations = [&] {
      Tracer::Scope check_span(tracer_, "plan_check", cycle);
      return tetrisched::ValidatePlan(cluster_, pending, running, placements);
    }();
    totals_.plan_violations += static_cast<int64_t>(violations.size());
    // The live scheduler replans a rejected plan with its greedy first-fit
    // rung, which the replay does not model: such cycles only have to fail
    // on both sides.
    const bool fell_back = !violations.empty();
    bool same = fell_back == (live.stats.ladder_rung > 0) &&
                std::set<JobId>(drops.begin(), drops.end()) ==
                    std::set<JobId>(live.drop.begin(), live.drop.end()) &&
                (fell_back || ToMap(placements) == ToMap(live.start_now));
    if (!same) {
      ++totals_.divergent_cycles;
    }
  }

  const ReplayTotals& totals() const { return totals_; }

 private:
  AvailabilityGrid BuildAvailability(SimTime now,
                                     const std::vector<RunningHold>& running) {
    tetrisched::TimeGrid grid;
    grid.start = tetrisched::QuantizeDown(now, config_.quantum);
    grid.quantum = config_.quantum;
    grid.num_slices = static_cast<int>(tetrisched::QuantaCovering(
        now + config_.plan_ahead - grid.start, config_.quantum));
    AvailabilityGrid availability(cluster_, grid);
    for (const RunningHold& hold : running) {
      SimTime expected_end =
          std::max(hold.expected_end, now + config_.quantum);
      for (const auto& [partition, count] : hold.counts) {
        availability.Reduce(partition, {now, expected_end}, count);
      }
    }
    return availability;
  }

  void CountSolve(const MilpResult& result) {
    ++totals_.solves;
    totals_.nodes += result.nodes;
    totals_.lp_iterations += result.lp_iterations;
    totals_.components += result.components;
    totals_.max_component_ms += result.max_component_ms;
    totals_.decompose_ms += result.decompose_ms;
    if (result.solve_status == SolveStatus::kTimeLimit) {
      ++totals_.time_limited;
    }
    if (result.solve_status == SolveStatus::kNoIncumbent) {
      ++totals_.no_incumbent;
    }
    if (result.HasSolution()) {
      double scale = std::max(1e-9, std::abs(result.best_bound));
      totals_.gap_pct +=
          100.0 * std::max(0.0, result.best_bound - result.objective) / scale;
      ++totals_.gap_samples;
    }
  }

  MilpResult Solve(int64_t cycle, const CompiledStrl& compiled) {
    totals_.vars += compiled.model().num_vars();
    totals_.rows += compiled.model().num_constraints();
    MilpResult result = [&] {
      Tracer::Scope solve_span(tracer_, "solver", cycle);
      return tetrisched::MilpSolver(compiled.model(), config_.milp)
          .Solve();
    }();
    CountSolve(result);
    return result;
  }

  static int QueueRank(const Job& job) {
    switch (job.slo_class) {
      case tetrisched::SloClass::kSloAccepted:
        return 0;
      case tetrisched::SloClass::kSloUnreserved:
        return 1;
      case tetrisched::SloClass::kBestEffort:
        return 2;
    }
    return 2;
  }

  std::vector<Placement> GreedyCycle(int64_t cycle, SimTime now,
                                     const std::vector<const Job*>& pending,
                                     AvailabilityGrid& availability,
                                     std::vector<JobId>* drops) {
    std::vector<const Job*> ordered(pending.begin(), pending.end());
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Job* a, const Job* b) {
                       if (QueueRank(*a) != QueueRank(*b)) {
                         return QueueRank(*a) < QueueRank(*b);
                       }
                       return a->submit < b->submit;
                     });
    std::vector<Placement> placements;
    for (const Job* job : ordered) {
      tetrisched::OptionRegistry registry;
      std::optional<tetrisched::StrlExpr> expr = [&] {
        Tracer::Scope gen_span(tracer_, "strl_gen", cycle);
        return generator_.GenerateJobExpr(*job, now, &registry);
      }();
      totals_.options += static_cast<int64_t>(registry.size());
      if (!expr.has_value()) {
        drops->push_back(job->id);
        continue;
      }
      CompiledStrl compiled = [&] {
        Tracer::Scope compile_span(tracer_, "compiler", cycle);
        return tetrisched::StrlCompiler(availability).Compile(*expr);
      }();
      MilpResult result = Solve(cycle, compiled);
      if (!result.HasSolution() || result.objective <= 0.0) {
        continue;
      }
      ++totals_.committed_solves;
      Tracer::Scope commit_span(tracer_, "commit", cycle);
      Placement placement;
      bool starts_now = false;
      for (const tetrisched::StrlAllocation& alloc :
           compiled.ExtractAllocations(result.values)) {
        auto option = registry.find(alloc.tag);
        if (option == registry.end()) {
          continue;
        }
        for (const auto& [partition, count] : alloc.counts) {
          availability.Reduce(partition,
                              {alloc.start, alloc.start + alloc.duration},
                              count);
        }
        if (option->second.start <= now) {
          starts_now = true;
          placement.job = option->second.job;
          placement.est_duration = option->second.est_duration;
          placement.preferred_belief = option->second.preferred;
          placement.value = option->second.value;
          for (const auto& [partition, count] : alloc.counts) {
            placement.counts[partition] += count;
          }
        }
      }
      if (starts_now) {
        placements.push_back(std::move(placement));
      }
    }
    return placements;
  }

  const Cluster& cluster_;
  const TetriSchedConfig config_;
  tetrisched::StrlGenerator generator_;
  Tracer* tracer_;
  ReplayTotals totals_;
};

// What one simulated instance produced.
struct InstanceRun {
  tetrisched::SimMetrics metrics;
  double run_ms = 0.0;    // Simulator::Run wall time
  double gen_ms = 0.0;    // GenerateWorkload
  double admit_ms = 0.0;  // ApplyAdmission
  int accepted = 0;       // reservations Rayon accepted
  int reservation_seekers = 0;
  int64_t on_cycle_calls = 0;
  std::vector<double> cycle_ms;  // OnCycle wall time, non-empty cycles
  std::vector<CycleStats> stats;  // CycleStats, non-empty cycles
  int64_t external_violations = 0;
  int64_t nodes = 0;
};

// Decorator around TetriScheduler: times each OnCycle from outside, runs
// ValidatePlan on every committed decision, and hands the cycle input to
// the replayer in traced runs.
class ObservedPolicy : public SchedulerPolicy {
 public:
  ObservedPolicy(const Cluster& cluster, tetrisched::TetriScheduler* inner,
                 Tracer* tracer, Replayer* replayer, InstanceRun* out)
      : cluster_(cluster),
        inner_(inner),
        tracer_(tracer),
        replayer_(replayer),
        out_(out) {}

  Decision OnCycle(SimTime now, const std::vector<const Job*>& pending,
                   const std::vector<RunningHold>& running) override {
    const int64_t cycle = out_->on_cycle_calls++;
    Decision decision;
    Clock::time_point start;
    Clock::time_point end;
    {
      Tracer::Scope span(tracer_, "core.on_cycle", cycle);
      start = Clock::now();
      decision = inner_->OnCycle(now, pending, running);
      end = Clock::now();
      if (span.index() >= 0 && !pending.empty()) {
        const CycleStats& s = decision.stats;
        tracer_->Attr(span.index(), "strl_gen_ms", 1e3 * s.strl_gen_seconds);
        tracer_->Attr(span.index(), "compile_ms", 1e3 * s.compile_seconds);
        tracer_->Attr(span.index(), "solve_ms", 1e3 * s.solver_seconds);
        tracer_->Attr(span.index(), "commit_ms", 1e3 * s.commit_seconds);
        tracer_->Attr(span.index(), "pending", s.pending_count);
        tracer_->Attr(span.index(), "nodes", s.milp_nodes);
        tracer_->Attr(span.index(), "vars", s.milp_vars);
        tracer_->Attr(span.index(), "rows", s.milp_constraints);
        tracer_->Attr(span.index(), "ladder_rung", s.ladder_rung);
        tracer_->Attr(span.index(), "solve_status",
                      static_cast<double>(s.solve_status));
      }
    }
    const double ms = MsBetween(start, end);
    if (!pending.empty()) {
      out_->cycle_ms.push_back(ms);
      out_->stats.push_back(decision.stats);
      out_->nodes += decision.stats.milp_nodes;
    }
    {
      Tracer::Scope span(tracer_, "plan_check.external", cycle);
      out_->external_violations += static_cast<int64_t>(
          tetrisched::ValidatePlan(cluster_, pending, running,
                                   decision.start_now)
              .size());
    }
    if (replayer_ != nullptr) {
      replayer_->Replay(cycle, now, pending, running, decision);
    }
    return decision;
  }

  const char* name() const override { return inner_->name(); }
  std::string ExportDurableState() const override {
    return inner_->ExportDurableState();
  }
  void ImportDurableState(std::string_view blob) override {
    inner_->ImportDurableState(blob);
  }

 private:
  const Cluster& cluster_;
  tetrisched::TetriScheduler* inner_;
  Tracer* tracer_;
  Replayer* replayer_;
  InstanceRun* out_;
};

// Workload generation, admission, and scheduler + simulator construction;
// the simulator is built but not run.
struct Prepared {
  std::unique_ptr<tetrisched::TetriScheduler> scheduler;
  std::unique_ptr<ObservedPolicy> policy;
  std::unique_ptr<tetrisched::Simulator> simulator;
};

Prepared Prepare(const SimWorkload& spec, const Cluster& cluster,
                 uint64_t instance_seed, Tracer* tracer, Replayer* replayer,
                 InstanceRun* out) {
  tetrisched::WorkloadParams params;
  params.kind = spec.kind;
  params.seed = instance_seed;
  params.num_jobs = spec.jobs_per_instance;
  params.slowdown = spec.slowdown;
  params.target_load = spec.target_load;
  Clock::time_point gen_start = Clock::now();
  std::vector<Job> jobs = [&] {
    Tracer::Scope span(tracer, "workload.generate", -1);
    return tetrisched::GenerateWorkload(cluster, params);
  }();
  Clock::time_point admit_start = Clock::now();
  out->accepted = [&] {
    Tracer::Scope span(tracer, "rayon.admit", -1);
    return tetrisched::ApplyAdmission(cluster, jobs);
  }();
  Clock::time_point admit_end = Clock::now();
  out->gen_ms = MsBetween(gen_start, admit_start);
  out->admit_ms = MsBetween(admit_start, admit_end);
  out->reservation_seekers = static_cast<int>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const Job& job) { return job.wants_reservation; }));
  Prepared prepared;
  prepared.scheduler =
      std::make_unique<tetrisched::TetriScheduler>(cluster, spec.config);
  prepared.policy = std::make_unique<ObservedPolicy>(
      cluster, prepared.scheduler.get(), tracer, replayer, out);
  tetrisched::SimConfig sim_config;
  sim_config.provenance = tetrisched::SimConfig::ProvenanceMode::kOff;
  prepared.simulator = std::make_unique<tetrisched::Simulator>(
      cluster, *prepared.policy, std::move(jobs), sim_config);
  return prepared;
}

InstanceRun RunInstance(const SimWorkload& spec, const Cluster& cluster,
                        uint64_t instance_seed, Tracer* tracer,
                        Replayer* replayer) {
  InstanceRun out;
  Prepared prepared =
      Prepare(spec, cluster, instance_seed, tracer, replayer, &out);
  Clock::time_point start = Clock::now();
  {
    Tracer::Scope span(tracer, "sim.run", -1);
    out.metrics = prepared.simulator->Run();
  }
  out.run_ms = MsBetween(start, Clock::now());
  return out;
}

// Schedule-level correctness of one instance.
void CheckInstance(const InstanceRun& run, int instance, Report* report) {
  const std::string where = "instance " + std::to_string(instance) + ": ";
  if (run.metrics.validator_violations != 0) {
    report->Violation(where + "simulator counted " +
                      std::to_string(run.metrics.validator_violations) +
                      " validator violations");
  }
  if (run.metrics.belief_invariant_violations != 0) {
    report->Violation(where + "belief invariant violations");
  }
  if (run.external_violations != 0) {
    report->Violation(where + "ValidatePlan rejected " +
                      std::to_string(run.external_violations) +
                      " committed placements");
  }
  for (const tetrisched::JobOutcome& outcome : run.metrics.outcomes) {
    // Each job ends completed, dropped, or still pending (never started).
    if (outcome.started && !outcome.completed && !outcome.dropped) {
      report->Violation(where + "job " + std::to_string(outcome.id) +
                        " started but neither completed nor dropped");
      break;
    }
  }
}

// Counters that must repeat exactly for the same inputs.
struct Fingerprint {
  int64_t cycles = 0;
  int64_t nodes = 0;
  int64_t completed = 0;
  double slo = 0.0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const InstanceRun& run) {
  Fingerprint f;
  f.cycles = static_cast<int64_t>(run.cycle_ms.size());
  f.nodes = run.nodes;
  f.completed = std::count_if(
      run.metrics.outcomes.begin(), run.metrics.outcomes.end(),
      [](const tetrisched::JobOutcome& o) { return o.completed; });
  f.slo = run.metrics.TotalSloAttainment();
  return f;
}

// An instance's times in every pass: per non-empty cycle, and for the whole
// Simulator::Run. Every pass added must repeat the first (same fingerprint).
struct PassTimes {
  std::vector<std::vector<double>> cycle_ms;  // [pass][cycle]
  std::vector<double> run_ms;                 // [pass]

  void Add(const InstanceRun& run) {
    cycle_ms.push_back(run.cycle_ms);
    run_ms.push_back(run.run_ms);
  }
  // Each cycle's median over the passes.
  std::vector<double> MedianCycleMs() const {
    std::vector<double> medians(cycle_ms.front().size());
    std::vector<double> passes(cycle_ms.size());
    for (size_t k = 0; k < medians.size(); ++k) {
      for (size_t p = 0; p < cycle_ms.size(); ++p) {
        passes[p] = cycle_ms[p][k];
      }
      medians[k] = Median(passes);
    }
    return medians;
  }
};

struct Quality {
  double slo_pct = 0.0;
  double accepted_slo_pct = 0.0;
  double be_latency_s = 0.0;
};

// Section 6.3 metrics pooled over every job of every instance.
Quality PooledQuality(const std::vector<InstanceRun>& runs) {
  int64_t slo = 0, slo_met = 0, accepted = 0, accepted_met = 0, be = 0;
  double be_latency = 0.0;
  for (const InstanceRun& run : runs) {
    for (const tetrisched::JobOutcome& o : run.metrics.outcomes) {
      if (o.is_slo()) {
        ++slo;
        slo_met += o.MetDeadline() ? 1 : 0;
        if (o.slo_class == tetrisched::SloClass::kSloAccepted) {
          ++accepted;
          accepted_met += o.MetDeadline() ? 1 : 0;
        }
      } else if (o.completed) {
        ++be;
        be_latency += static_cast<double>(o.completion - o.submit);
      }
    }
  }
  Quality q;
  q.slo_pct = slo > 0 ? 100.0 * slo_met / slo : 0.0;
  q.accepted_slo_pct = accepted > 0 ? 100.0 * accepted_met / accepted : 0.0;
  q.be_latency_s = be > 0 ? be_latency / be : 0.0;
  return q;
}

void ReportLive(const std::vector<InstanceRun>& first_pass,
                const std::vector<PassTimes>& times, Report* report) {
  std::vector<double> cycle_ms;
  double run_ms = 0.0;
  for (const PassTimes& instance : times) {
    std::vector<double> medians = instance.MedianCycleMs();
    cycle_ms.insert(cycle_ms.end(), medians.begin(), medians.end());
    run_ms += Median(instance.run_ms);
  }
  const double cycles = static_cast<double>(cycle_ms.size());
  std::vector<double> sorted = cycle_ms;
  std::sort(sorted.begin(), sorted.end());
  auto [p95, p95_ms] = TailPercentile(&cycle_ms, 95.0);
  const double p50_ms = PercentileSorted(sorted, 50.0);
  const double cycles_per_s = cycles / (run_ms / 1000.0);
  Quality q = PooledQuality(first_pass);
  report->Set("cycle_ms_p50", p50_ms, "ms");
  report->Set("cycle_ms_p95", p95_ms, "ms");
  report->Set("cycles_per_s", cycles_per_s, "1/s");
  // The simulator is a closed-loop caller with one scheduling request (an
  // OnCycle) outstanding: a request's latency is the cycle's, and the rate
  // it sustains is the cycle rate.
  report->Set("req_ms_p50", p50_ms, "ms");
  report->Set("max_ok_rps", cycles_per_s, "1/s");
  report->Set("slo_pct", q.slo_pct, "%");
  report->Set("accepted_slo_pct", q.accepted_slo_pct, "%");
  report->Set("be_latency_s", q.be_latency_s, "s");
  report->Info("cycle_samples", cycles);
  report->Info("cycle_p95_percentile", p95);
}

void ReportTraced(const Tracer& tracer,
                  const Replayer& replayer,
                  const std::vector<InstanceRun>& traced,
                  const std::vector<InstanceRun>& untraced, Report* report) {
  std::map<std::string, Tracer::NameTotals> totals = tracer.Totals();
  auto self_ms = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ms;
  };
  auto total_ms = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  const ReplayTotals& r = replayer.totals();
  const double replay_cycles = std::max<double>(1.0, r.cycles);

  // Live OnCycle split from CycleStats (what OnCycle itself measured).
  double cycle_s = 0.0, gen_s = 0.0, compile_s = 0.0, solve_s = 0.0,
         commit_s = 0.0, pending = 0.0;
  int64_t live_cycles = 0, fallback = 0, skipped = 0, dropped = 0,
          time_limited = 0, certifier_rejects = 0, nodes = 0;
  double gen_ms = 0.0, admit_ms = 0.0;
  int64_t accepted = 0, seekers = 0, completed = 0;
  for (const InstanceRun& run : traced) {
    for (const CycleStats& s : run.stats) {
      ++live_cycles;
      cycle_s += s.cycle_seconds;
      gen_s += s.strl_gen_seconds;
      compile_s += s.compile_seconds;
      solve_s += s.solver_seconds;
      commit_s += s.commit_seconds;
      pending += s.pending_count;
      fallback += s.ladder_rung > 0 ? 1 : 0;
      skipped += s.ladder_rung == 2 ? 1 : 0;
      dropped += s.dropped_count;
      time_limited += s.solve_status == SolveStatus::kTimeLimit ? 1 : 0;
      certifier_rejects += s.certifier_rejects;
      nodes += s.milp_nodes;
    }
    gen_ms += run.gen_ms;
    admit_ms += run.admit_ms;
    accepted += run.accepted;
    seekers += run.reservation_seekers;
    completed += FingerprintOf(run).completed;
  }
  const double n = std::max<double>(1.0, live_cycles);
  const double instances = std::max<double>(1.0, traced.size());

  report->Set("solver.ms", self_ms("solver") / replay_cycles, "ms");
  report->Set("solver.nodes", static_cast<double>(nodes), "count");
  report->Set("solver.lp_iterations", static_cast<double>(r.lp_iterations),
              "count");
  report->Set("solver.iters_per_node",
              r.nodes > 0 ? static_cast<double>(r.lp_iterations) / r.nodes
                          : 0.0,
              "count");
  report->Set("solver.us_per_iter",
              r.lp_iterations > 0 ? 1e3 * self_ms("solver") / r.lp_iterations
                                  : 0.0,
              "us");
  const double solves = std::max<double>(1.0, r.solves);
  report->Set("solver.components", r.components / solves, "count");
  report->Set("solver.max_component_ms", r.max_component_ms / solves, "ms");
  report->Set("solver.decompose_ms", r.decompose_ms / solves, "ms");
  report->Set("solver.gap_pct",
              r.gap_samples > 0 ? r.gap_pct / r.gap_samples : 0.0, "%");
  report->Set("solver.time_limited", static_cast<double>(r.time_limited),
              "count");
  report->Set("solver.no_incumbent", static_cast<double>(r.no_incumbent),
              "count");
  report->Set("solver.commit_ratio",
              r.solves > 0 ? static_cast<double>(r.committed_solves) / r.solves
                           : 0.0,
              "ratio");
  report->Set("compiler.ms", self_ms("compiler") / replay_cycles, "ms");
  report->Set("compiler.vars", r.vars / replay_cycles, "count");
  report->Set("compiler.rows", r.rows / replay_cycles, "count");
  report->Set("strl_gen.ms", self_ms("strl_gen") / replay_cycles, "ms");
  report->Set("strl_gen.options_per_cycle", r.options / replay_cycles,
              "count");
  report->Set("availability.ms", self_ms("availability") / replay_cycles,
              "ms");
  report->Set("core.cycle_ms", 1e3 * cycle_s / n, "ms");
  report->Set("core.other_ms",
              1e3 * (cycle_s - gen_s - compile_s - solve_s - commit_s) / n,
              "ms");
  report->Set("core.commit_ms", 1e3 * commit_s / n, "ms");
  report->Set("core.pending_per_cycle", pending / n, "count");
  report->Set("core.fallback_cycles", static_cast<double>(fallback), "count");
  report->Set("core.skipped_cycles", static_cast<double>(skipped), "count");
  report->Set("core.dropped_jobs", static_cast<double>(dropped), "count");
  report->Set("core.solver_share_pct",
              cycle_s > 0 ? 100.0 * solve_s / cycle_s : 0.0, "%");
  report->Set("core.gen_compile_share_pct",
              cycle_s > 0 ? 100.0 * (gen_s + compile_s) / cycle_s : 0.0, "%");
  report->Set("certify.rejects", static_cast<double>(certifier_rejects),
              "count");
  report->Set("plan_check.ms", self_ms("plan_check") / replay_cycles, "ms");
  report->Set("plan_check.violations", static_cast<double>(r.plan_violations),
              "count");
  report->Set("sim.self_ms", self_ms("sim.run") / instances, "ms");
  report->Set("sim.cycles", static_cast<double>(live_cycles), "count");
  report->Set("sim.jobs_completed", static_cast<double>(completed), "count");
  report->Set("workload.gen_ms", gen_ms / instances, "ms");
  report->Set("rayon.admit_ms", admit_ms / instances, "ms");
  report->Set("rayon.accepted_pct",
              seekers > 0 ? 100.0 * accepted / seekers : 0.0, "%");
  report->Set("replay.divergent_cycles",
              static_cast<double>(r.divergent_cycles), "count");

  // Tracing overhead: the traced pass's Simulator::Run time without the
  // replay it hosted, against the same instances run untraced.
  double traced_ms = 0.0, untraced_ms = 0.0;
  for (const InstanceRun& run : traced) {
    traced_ms += run.run_ms;
  }
  for (const InstanceRun& run : untraced) {
    untraced_ms += run.run_ms;
  }
  traced_ms -= total_ms("replay.cycle");
  report->Set("trace.overhead_pct",
              untraced_ms > 0 ? 100.0 * (traced_ms / untraced_ms - 1.0) : 0.0,
              "%");
  report->Info("time_limited_cycles", static_cast<double>(time_limited));
  if (r.divergent_cycles > 0) {
    std::printf("replay: %lld of %lld cycles diverged from the live run\n",
                static_cast<long long>(r.divergent_cycles),
                static_cast<long long>(r.cycles));
  }
  std::printf(
      "design check: solver %.1f%% and strl_gen+compile %.1f%% of OnCycle "
      "time\n",
      cycle_s > 0 ? 100.0 * solve_s / cycle_s : 0.0,
      cycle_s > 0 ? 100.0 * (gen_s + compile_s) / cycle_s : 0.0);
}

}  // namespace

void RunSimWorkload(const RunOptions& options, Report* report) {
  std::optional<SimWorkload> found = MakeWorkload(options.workload,
                                                  options.smoke);
  if (!found.has_value()) {
    report->Violation("unknown workload " + options.workload);
    return;
  }
  const SimWorkload& spec = *found;
  const Cluster cluster = tetrisched::MakeUniformCluster(
      spec.racks, spec.nodes_per_rack, spec.gpu_racks);
  report->Info("num_threads", static_cast<double>(spec.config.milp.num_threads));
  report->Info("jobs_per_instance", static_cast<double>(spec.jobs_per_instance));
  report->Info("instances", static_cast<double>(spec.instances));

  // Set-up cost: generation, admission, scheduler and simulator
  // construction for every stream of a pass, repeated and reduced to a
  // median. (Timing each stream's ~1 ms set-up on its own spread by 27% over
  // five seeds.)
  std::vector<double> setup_s;
  for (int repeat = 0; repeat < 7; ++repeat) {
    std::vector<InstanceRun> scratch(spec.instances);
    std::vector<Prepared> prepared;
    prepared.reserve(spec.instances);
    Clock::time_point start = Clock::now();
    for (int i = 0; i < spec.instances; ++i) {
      prepared.push_back(Prepare(spec, cluster, InstanceSeed(options.seed, i),
                                 nullptr, nullptr, &scratch[i]));
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  report->Set("setup_s", Median(setup_s), "s");

  if (options.trace) {
    // The first two streams only: a traced stream records a span per job
    // per cycle for each layer call, millions over all of them.
    const int traced_streams = std::min(spec.instances, 2);
    Tracer tracer(true);
    Replayer replayer(cluster, spec.config, &tracer);
    std::vector<InstanceRun> traced, untraced;
    for (int i = 0; i < traced_streams; ++i) {
      traced.push_back(RunInstance(spec, cluster,
                                   InstanceSeed(options.seed, i), &tracer,
                                   &replayer));
      CheckInstance(traced.back(), i, report);
    }
    for (int i = 0; i < traced_streams; ++i) {
      untraced.push_back(RunInstance(spec, cluster,
                                     InstanceSeed(options.seed, i), nullptr,
                                     nullptr));
      if (!(FingerprintOf(untraced.back()) == FingerprintOf(traced[i]))) {
        report->Violation("instance " + std::to_string(i) +
                          ": traced and untraced runs scheduled differently");
      }
    }
    ReportTraced(tracer, replayer, traced, untraced, report);
    for (const InstanceRun& run : traced) {
      report->attempted += static_cast<int64_t>(run.stats.size());
      for (const CycleStats& s : run.stats) {
        report->failed += s.ladder_rung > 0 ? 1 : 0;
      }
    }
    WriteSpans(tracer, options);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const Clock::time_point measure_start = Clock::now();
  const Clock::time_point deadline =
      measure_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.seconds));
  std::vector<InstanceRun> first_pass;
  std::vector<PassTimes> times(spec.instances);
  std::vector<Fingerprint> expected;
  int64_t time_limited = 0;
  for (int i = 0; i < spec.instances; ++i) {
    InstanceRun run = RunInstance(spec, cluster, InstanceSeed(options.seed, i),
                                  nullptr, nullptr);
    CheckInstance(run, i, report);
    expected.push_back(FingerprintOf(run));
    for (const CycleStats& s : run.stats) {
      ++report->attempted;
      report->failed += s.ladder_rung > 0 ? 1 : 0;
      time_limited += s.solve_status == SolveStatus::kTimeLimit ? 1 : 0;
    }
    times[i].Add(run);
    first_pass.push_back(std::move(run));
  }
  // Another pass runs while one as long as the last still fits.
  int passes = 1;
  Clock::time_point pass_start = measure_start;
  for (Clock::time_point now = Clock::now();
       passes < kMinPasses || now + (now - pass_start) <= deadline;
       now = Clock::now(), ++passes) {
    pass_start = now;
    for (int i = 0; i < spec.instances; ++i) {
      InstanceRun run = RunInstance(spec, cluster,
                                    InstanceSeed(options.seed, i), nullptr,
                                    nullptr);
      if (!(FingerprintOf(run) == expected[i])) {
        report->Violation("instance " + std::to_string(i) +
                          ": a repeat of the same inputs scheduled "
                          "differently");
        continue;
      }
      times[i].Add(run);
    }
  }
  ReportLive(first_pass, times, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");

  int64_t nodes = 0, cycles = 0, completed = 0;
  for (const Fingerprint& f : expected) {
    nodes += f.nodes;
    cycles += f.cycles;
    completed += f.completed;
  }
  report->Info("passes", static_cast<double>(passes));
  report->Info("solver.nodes", static_cast<double>(nodes));
  report->Info("sim.cycles", static_cast<double>(cycles));
  report->Info("sim.jobs_completed", static_cast<double>(completed));
  report->Info("time_limited_cycles", static_cast<double>(time_limited));
  report->Info("comparable", time_limited == 0 ? "yes" : "no");
}

}  // namespace perfbench
