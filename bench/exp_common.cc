#include "bench/exp_common.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/baseline/capacity_scheduler.h"

namespace tetrisched {

const char* PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kTetriSched:
      return "TetriSched";
    case PolicyKind::kTetriSchedNH:
      return "TetriSched-NH";
    case PolicyKind::kTetriSchedNG:
      return "TetriSched-NG";
    case PolicyKind::kTetriSchedNP:
      return "TetriSched-NP";
    case PolicyKind::kRayonCS:
      return "Rayon/CS";
  }
  return "?";
}

Cluster MakeRc256(int gpu_racks) { return MakeUniformCluster(8, 4, gpu_racks); }

Cluster MakeRc80(int gpu_racks) { return MakeUniformCluster(4, 4, gpu_racks); }

namespace {

std::unique_ptr<SchedulerPolicy> MakePolicy(const Cluster& cluster,
                                            const ExperimentSpec& spec) {
  if (spec.policy == PolicyKind::kRayonCS) {
    return std::make_unique<CapacityScheduler>(cluster);
  }
  TetriSchedConfig config;
  switch (spec.policy) {
    case PolicyKind::kTetriSched:
      config = TetriSchedConfig::Full(spec.plan_ahead);
      break;
    case PolicyKind::kTetriSchedNH:
      config = TetriSchedConfig::NoHeterogeneity(spec.plan_ahead);
      break;
    case PolicyKind::kTetriSchedNG:
      config = TetriSchedConfig::NoGlobal(spec.plan_ahead);
      break;
    case PolicyKind::kTetriSchedNP:
      config = TetriSchedConfig::NoPlanAhead();
      break;
    case PolicyKind::kRayonCS:
      break;
  }
  config.quantum = spec.quantum;
  if (spec.policy == PolicyKind::kTetriSchedNP) {
    config.plan_ahead = spec.quantum;
  }
  config.milp.time_limit_seconds = spec.milp_time_limit;
  config.milp.max_nodes = spec.milp_max_nodes;
  config.milp.enable_decomposition = spec.milp_decomposition;
  return std::make_unique<TetriScheduler>(cluster, config);
}

}  // namespace

SimMetrics RunExperiment(const Cluster& cluster, const WorkloadParams& params,
                         const ExperimentSpec& spec) {
  std::vector<Job> jobs = GenerateWorkload(cluster, params);
  ApplyAdmission(cluster, jobs);
  std::unique_ptr<SchedulerPolicy> policy = MakePolicy(cluster, spec);
  SimConfig sim_config;
  sim_config.cycle_period = spec.cycle_period;
  Simulator sim(cluster, *policy, std::move(jobs), sim_config);
  return sim.Run();
}

SweepStats RunAveraged(const Cluster& cluster, WorkloadParams params,
                       const ExperimentSpec& spec, int num_seeds) {
  SweepStats stats;
  for (int s = 0; s < num_seeds; ++s) {
    params.seed = 1000 + 17 * s;
    SimMetrics metrics = RunExperiment(cluster, params, spec);
    stats.total_slo += 100.0 * metrics.TotalSloAttainment();
    stats.accepted_slo += 100.0 * metrics.AcceptedSloAttainment();
    stats.unreserved_slo += 100.0 * metrics.UnreservedSloAttainment();
    stats.be_latency += metrics.MeanBestEffortLatency();
    stats.cycle_latency_ms += metrics.cycle_latency_ms.Mean();
    stats.solver_latency_ms += metrics.solver_latency_ms.Mean();
    stats.utilization += 100.0 * metrics.utilization;
  }
  double inv = 1.0 / num_seeds;
  stats.total_slo *= inv;
  stats.accepted_slo *= inv;
  stats.unreserved_slo *= inv;
  stats.be_latency *= inv;
  stats.cycle_latency_ms *= inv;
  stats.solver_latency_ms *= inv;
  stats.utilization *= inv;
  return stats;
}

void PrintHeader(const std::string& title, const std::string& workload,
                 const Cluster& cluster) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Workload: %s | Cluster: %d nodes, %d racks, %d gpu nodes\n",
              workload.c_str(), cluster.num_nodes(), cluster.num_racks(),
              cluster.num_gpu_nodes());
  std::printf("==============================================================\n");
}

std::string Fixed(double value, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

const char* PanelTitle(Panel panel) {
  switch (panel) {
    case Panel::kTotalSlo:
      return "SLO attainment, all SLO jobs (%)";
    case Panel::kAcceptedSlo:
      return "SLO attainment, accepted SLO jobs (%)";
    case Panel::kUnreservedSlo:
      return "SLO attainment, SLO jobs w/o reservation (%)";
    case Panel::kBeLatency:
      return "best-effort mean latency (s)";
  }
  return "?";
}

double PanelValue(const SweepStats& stats, Panel panel) {
  switch (panel) {
    case Panel::kTotalSlo:
      return stats.total_slo;
    case Panel::kAcceptedSlo:
      return stats.accepted_slo;
    case Panel::kUnreservedSlo:
      return stats.unreserved_slo;
    case Panel::kBeLatency:
      return stats.be_latency;
  }
  return 0.0;
}

int SeedsFromEnv(int default_seeds) {
  return std::getenv("TETRI_QUICK") != nullptr ? 1 : default_seeds;
}

void RunAndPrintErrorSweep(const Cluster& cluster,
                           const ErrorSweepSpec& spec) {
  std::vector<std::vector<SweepStats>> results(spec.errors.size());
  for (size_t e = 0; e < spec.errors.size(); ++e) {
    for (PolicyKind policy : spec.policies) {
      WorkloadParams params = spec.params;
      params.estimate_error = spec.errors[e];
      ExperimentSpec experiment = spec.experiment;
      experiment.policy = policy;
      results[e].push_back(
          RunAveraged(cluster, params, experiment, spec.num_seeds));
    }
  }

  char label = 'a';
  for (Panel panel : spec.panels) {
    std::printf("\n(%c) %s\n", label++, PanelTitle(panel));
    std::printf("%10s", "err(%)");
    for (PolicyKind policy : spec.policies) {
      std::printf(" %14s", PolicyName(policy));
    }
    std::printf("\n");
    for (size_t e = 0; e < spec.errors.size(); ++e) {
      std::printf("%10.0f", spec.errors[e] * 100);
      for (size_t p = 0; p < spec.policies.size(); ++p) {
        std::printf(" %14s", Fixed(PanelValue(results[e][p], panel)).c_str());
      }
      std::printf("\n");
    }
  }
}

}  // namespace tetrisched
