// Overload storm sweep (robustness extension; not a paper figure).
//
// Sweeps arrival burstiness on the RC256-scaled cluster under GS MIX and
// compares three TetriSched configurations:
//   * fixed      — Full plan-ahead (96 s), no cycle budget (pre-§13 behavior)
//   * adaptive   — Full plan-ahead plus a wall-clock cycle budget: the AIMD
//                  controller shrinks the plan-ahead window (and relaxes
//                  rel_gap) while storms keep blowing the budget, and
//                  restores it when headroom returns (DESIGN.md §13)
//   * fixed-NP   — now-or-never (plan_ahead == quantum), the floor the
//                  adaptive controller degrades toward
// Reported per storm level: SLO attainment, p99 cycle wall-clock latency,
// and the budget accounting (blown cycles, adaptations). The expectation:
// adaptive keeps p99 cycle latency near the budget while fixed does not,
// at SLO attainment no worse than fixed-NP.
//
// With TETRISCHED_BENCH_JSON set, one record per (policy, burst, seed) cell
// is written to BENCH_overload.json.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/exp_common.h"

namespace tetrisched {
namespace {

// Wall-clock budget for one scheduling cycle in the adaptive configuration.
// The simulated cycle period is 4 s, but solves in the scaled testbed take
// milliseconds, so the budget is scaled the same way the per-solve MILP
// limit is (exp_common: 0.15 s).
constexpr double kCycleBudgetSeconds = 0.05;

enum class Config { kFixed, kAdaptive, kFixedNp };

const char* ConfigName(Config config) {
  switch (config) {
    case Config::kFixed:
      return "fixed";
    case Config::kAdaptive:
      return "adaptive";
    case Config::kFixedNp:
      return "fixed-NP";
  }
  return "?";
}

std::unique_ptr<TetriScheduler> MakePolicy(const Cluster& cluster,
                                           Config config) {
  TetriSchedConfig scheduler_config =
      config == Config::kFixedNp ? TetriSchedConfig::NoPlanAhead()
                                 : TetriSchedConfig::Full(/*plan_ahead=*/96);
  scheduler_config.quantum = 8;
  scheduler_config.milp.time_limit_seconds = 0.15;
  scheduler_config.milp.max_nodes = 1500;
  if (config == Config::kAdaptive) {
    scheduler_config.budget.budget_seconds = kCycleBudgetSeconds;
  }
  return std::make_unique<TetriScheduler>(cluster, scheduler_config);
}

struct CellStats {
  double total_slo = 0.0;       // percent
  double accepted_slo = 0.0;    // percent
  double p99_cycle_ms = 0.0;
  double mean_cycle_ms = 0.0;
  double blown_cycles = 0.0;
  double adaptations = 0.0;
  double certifier_rejects = 0.0;
  double fallback_cycles = 0.0;
};

CellStats RunCell(const Cluster& cluster, Config config, double burst_factor,
                  int num_seeds, BenchJsonWriter& json) {
  CellStats cell;
  for (int s = 0; s < num_seeds; ++s) {
    WorkloadParams params;
    params.kind = WorkloadKind::kGsMix;
    params.seed = 3000 + 29 * s;
    params.num_jobs = 60;
    params.target_load = 1.3;  // deliberately past capacity: an overload storm
    if (burst_factor > 1.0) {
      params.arrivals = ArrivalPattern::kBursty;
      params.burst_factor = burst_factor;
    }

    std::vector<Job> jobs = GenerateWorkload(cluster, params);
    RayonAdmission rayon(cluster.num_nodes());
    ApplyAdmission(cluster, jobs, &rayon);

    SimConfig sim_config;
    sim_config.rayon = &rayon;

    std::unique_ptr<TetriScheduler> policy = MakePolicy(cluster, config);
    Simulator sim(cluster, *policy, std::move(jobs), sim_config);
    auto t0 = std::chrono::steady_clock::now();
    SimMetrics metrics = sim.Run();
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    double p99 = metrics.cycle_latency_ms.Percentile(99);
    cell.total_slo += 100.0 * metrics.TotalSloAttainment();
    cell.accepted_slo += 100.0 * metrics.AcceptedSloAttainment();
    cell.p99_cycle_ms += p99;
    cell.mean_cycle_ms += metrics.cycle_latency_ms.Mean();
    cell.blown_cycles += metrics.budget_blown_cycles;
    cell.adaptations += metrics.plan_ahead_adaptations;
    cell.certifier_rejects += metrics.certifier_rejects;
    cell.fallback_cycles += metrics.fallback_cycles;

    json.Add(std::string(ConfigName(config)) + "/burst=" +
                 Fixed(burst_factor, 0) + "/seed=" + std::to_string(s),
             wall_ms,
             {{"burst_factor", burst_factor},
              {"total_slo", 100.0 * metrics.TotalSloAttainment()},
              {"accepted_slo", 100.0 * metrics.AcceptedSloAttainment()},
              {"p99_cycle_ms", p99},
              {"mean_cycle_ms", metrics.cycle_latency_ms.Mean()},
              {"budget_blown_cycles",
               static_cast<double>(metrics.budget_blown_cycles)},
              {"plan_ahead_adaptations",
               static_cast<double>(metrics.plan_ahead_adaptations)},
              {"certifier_rejects",
               static_cast<double>(metrics.certifier_rejects)},
              {"fallback_cycles",
               static_cast<double>(metrics.fallback_cycles)}});
  }
  double inv = 1.0 / num_seeds;
  cell.total_slo *= inv;
  cell.accepted_slo *= inv;
  cell.p99_cycle_ms *= inv;
  cell.mean_cycle_ms *= inv;
  cell.blown_cycles *= inv;
  cell.adaptations *= inv;
  cell.certifier_rejects *= inv;
  cell.fallback_cycles *= inv;
  return cell;
}

int Main() {
  Cluster cluster = MakeRc256();
  PrintHeader(
      "Overload storm sweep: adaptive plan-ahead vs fixed",
      "GS MIX at 1.3x load, bursty arrivals (burst=1 means Poisson); "
      "adaptive cycle budget " + Fixed(1e3 * kCycleBudgetSeconds, 0) + " ms",
      cluster);

  const std::vector<double> bursts = {1.0, 4.0, 8.0, 16.0};
  const std::vector<Config> configs = {Config::kFixed, Config::kAdaptive,
                                       Config::kFixedNp};
  const int num_seeds = SeedsFromEnv(3);
  BenchJsonWriter json;

  std::vector<std::vector<CellStats>> results(bursts.size());
  for (size_t b = 0; b < bursts.size(); ++b) {
    for (Config config : configs) {
      results[b].push_back(RunCell(cluster, config, bursts[b], num_seeds,
                                   json));
    }
  }

  std::printf("\n(a) SLO attainment, all SLO jobs (%%)\n");
  std::printf("%10s", "burst");
  for (Config config : configs) {
    std::printf(" %12s", ConfigName(config));
  }
  std::printf("\n");
  for (size_t b = 0; b < bursts.size(); ++b) {
    std::printf("%10s", Fixed(bursts[b], 0).c_str());
    for (size_t c = 0; c < configs.size(); ++c) {
      std::printf(" %12s", Fixed(results[b][c].total_slo).c_str());
    }
    std::printf("\n");
  }

  std::printf("\n(b) p99 cycle wall-clock latency (ms; budget %s ms)\n",
              Fixed(1e3 * kCycleBudgetSeconds, 0).c_str());
  std::printf("%10s", "burst");
  for (Config config : configs) {
    std::printf(" %12s", ConfigName(config));
  }
  std::printf("\n");
  for (size_t b = 0; b < bursts.size(); ++b) {
    std::printf("%10s", Fixed(bursts[b], 0).c_str());
    for (size_t c = 0; c < configs.size(); ++c) {
      std::printf(" %12s", Fixed(results[b][c].p99_cycle_ms).c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "\n(c) budget accounting, averaged per run (adaptive column)\n");
  std::printf("%10s %8s %8s %10s %10s\n", "burst", "blown", "adapts",
              "certrej", "fallbacks");
  for (size_t b = 0; b < bursts.size(); ++b) {
    const CellStats& adaptive = results[b][1];
    std::printf("%10s %8s %8s %10s %10s\n", Fixed(bursts[b], 0).c_str(),
                Fixed(adaptive.blown_cycles).c_str(),
                Fixed(adaptive.adaptations).c_str(),
                Fixed(adaptive.certifier_rejects).c_str(),
                Fixed(adaptive.fallback_cycles).c_str());
  }

  json.WriteIfRequested("BENCH_overload.json");
  return 0;
}

}  // namespace
}  // namespace tetrisched

int main() { return tetrisched::Main(); }
