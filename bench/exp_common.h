// Shared experiment harness for the paper-reproduction benches.
//
// Each bench binary regenerates one table/figure of the paper: it sweeps a
// parameter (estimate error, plan-ahead, ...), runs the simulated cluster
// under each scheduler stack, and prints the same rows/series the paper
// reports. Scales are reduced (RC256 -> 32 simulated nodes, RC80 -> 16) so a
// full sweep finishes on a laptop; the paper's claims are relative, so the
// comparison shape is what matters (see EXPERIMENTS.md).
//
// Observability: every bench runs its simulations through Simulator::Run,
// which picks up export paths from the environment (DESIGN.md §10):
//   TETRISCHED_METRICS_JSON=m.json   per-phase histograms + counters (JSON)
//   TETRISCHED_METRICS_PROM=m.prom   same registry, Prometheus text format
//   TETRISCHED_TRACE_JSON=t.json     Chrome trace of cycle/solver spans
//   TETRISCHED_LOG_LEVEL=debug       stderr log threshold (logging.h)
// Setting any of the first three also enables clock-reading instrumentation
// for the run; results are unchanged (instrumentation never steers search).

#ifndef TETRISCHED_BENCH_EXP_COMMON_H_
#define TETRISCHED_BENCH_EXP_COMMON_H_

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/scheduler.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace tetrisched {

enum class PolicyKind {
  kTetriSched,
  kTetriSchedNH,
  kTetriSchedNG,
  kTetriSchedNP,
  kRayonCS,
};

const char* PolicyName(PolicyKind kind);

// The paper's two testbeds, scaled: RC256 = 8 racks x 4 nodes (32), RC80 =
// 4 racks x 4 nodes (16). GPU racks only matter for GS HET.
Cluster MakeRc256(int gpu_racks = 0);
Cluster MakeRc80(int gpu_racks = 2);

struct ExperimentSpec {
  PolicyKind policy = PolicyKind::kTetriSched;
  SimDuration plan_ahead = 96;
  SimDuration quantum = 8;
  // MILP budget per cycle; the paper bounds CPLEX the same way (§3.2.2).
  double milp_time_limit = 0.15;
  int milp_max_nodes = 1500;
  // Component decomposition of the cycle MILP (solver/decompose.h). On by
  // default; benches toggle it off for the monolithic baseline.
  bool milp_decomposition = true;
  SimDuration cycle_period = 4;
};

// Runs one workload/policy combination end to end (admission + simulation).
SimMetrics RunExperiment(const Cluster& cluster, const WorkloadParams& params,
                         const ExperimentSpec& spec);

// Averages a metric over `seeds` workload seeds. `metric` receives each
// run's SimMetrics and returns the scalar to average.
struct SweepStats {
  double total_slo = 0.0;        // percent
  double accepted_slo = 0.0;     // percent
  double unreserved_slo = 0.0;   // percent
  double be_latency = 0.0;       // seconds
  double cycle_latency_ms = 0.0;
  double solver_latency_ms = 0.0;
  double utilization = 0.0;      // percent
};

SweepStats RunAveraged(const Cluster& cluster, WorkloadParams params,
                       const ExperimentSpec& spec, int num_seeds);

// Formatting helpers for paper-style tables.
void PrintHeader(const std::string& title, const std::string& workload,
                 const Cluster& cluster);
std::string Fixed(double value, int precision = 1);

// One printable panel of a figure.
enum class Panel {
  kTotalSlo,
  kAcceptedSlo,
  kUnreservedSlo,
  kBeLatency,
};

const char* PanelTitle(Panel panel);
double PanelValue(const SweepStats& stats, Panel panel);

// Generic estimate-error sweep: runs every (error, policy) cell and prints
// one table per panel — the layout shared by the paper's Figs 6-10.
struct ErrorSweepSpec {
  std::string title;
  WorkloadParams params;
  std::vector<double> errors;
  std::vector<PolicyKind> policies;
  std::vector<Panel> panels;
  ExperimentSpec experiment;
  int num_seeds = 3;
};

void RunAndPrintErrorSweep(const Cluster& cluster, const ErrorSweepSpec& spec);

// Seeds reduced to 1 when TETRI_QUICK is set (fast smoke runs of benches).
int SeedsFromEnv(int default_seeds);

}  // namespace tetrisched

#endif  // TETRISCHED_BENCH_EXP_COMMON_H_
