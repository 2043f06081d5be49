// STRL Generator (paper §3.1, §4.4): turns a pending job plus reservation
// information into a STRL expression enumerating its space-time options over
// the plan-ahead window.
//
// For every feasible start time s (slot 0 = "start right now", later slots
// aligned to absolute quantum boundaries so option identities are stable
// across cycles for warm starting), a job-type plugin emits one or more
// placement options:
//
//   unconstrained:  nCk(whole cluster, k, s, dur, v)
//   gpu:            max( nCk(gpu partitions, k, s, fast, v_fast),
//                        nCk(whole cluster, k, s, slow, v_slow) )
//   mpi:            max( nCk(rack_r, k, s, fast, v_fast) for each rack r,
//                        nCk(whole cluster, k, s, slow, v_slow) )
//   availability:   min( nCk(rack_r, 1, s, dur, v) for each rack r )
//
// Options whose value is zero (an SLO start that cannot meet the deadline)
// are culled at generation time — the paper's expression-growth optimization.
// A heterogeneity-blind mode (TetriSched-NH) collapses every type to the
// whole-cluster option with the conservative slow runtime.
//
// Probe walks the same options without building them and applies the
// compiler's capacity cull test (LeafFits) to each, so TetriSched-NG builds,
// compiles and solves only jobs with an option that fits.

#ifndef TETRISCHED_CORE_STRL_GEN_H_
#define TETRISCHED_CORE_STRL_GEN_H_

#include <map>
#include <optional>
#include <string>

#include "src/cluster/availability.h"
#include "src/cluster/cluster.h"
#include "src/core/job.h"
#include "src/strl/strl.h"
#include "src/strl/value.h"

namespace tetrisched {

struct StrlGenOptions {
  SimDuration plan_ahead = 96;  // window length, seconds
  SimDuration quantum = 8;      // time-slice width
  bool heterogeneity_aware = true;  // false => TetriSched-NH
  // Horizon over which best-effort value decays to its floor.
  SimDuration be_decay_horizon = 600;
};

// Metadata recorded per generated leaf so chosen MILP options can be mapped
// back to concrete scheduling decisions.
struct JobOption {
  JobId job = -1;
  SimTime start = 0;
  SimDuration est_duration = 0;  // scheduler's belief
  bool preferred = false;        // was this the fast placement option?
  double value = 0.0;
  int option_kind = 0;  // kKindPreferred / kKindFallback / rack-specific
};

using OptionRegistry = std::map<LeafTag, JobOption>;

// What StrlGenerator::Probe found for a job against an availability grid.
enum class ProbeResult {
  kNoOption,  // GenerateJobExpr returns nullopt: drop the job
  kNoFit,     // every leaf fails the compiler's cull test
  kFits,      // some leaf passes it
};

// Human-readable name for JobOption::option_kind ("preferred", "fallback",
// "rack<r>"), used by decision provenance.
std::string OptionKindName(int option_kind);

class StrlGenerator {
 public:
  StrlGenerator(const Cluster& cluster, StrlGenOptions options);

  // Builds the option tree for `job` at scheduling instant `now`. Returns
  // nullopt when no option has positive value (SLO deadline unreachable);
  // such jobs should be dropped (paper: culling zero-value pending jobs).
  std::optional<StrlExpr> GenerateJobExpr(const Job& job, SimTime now,
                                          OptionRegistry* registry) const;

  // Walks the options GenerateJobExpr would build for `job` at `now` without
  // building any, testing each leaf with LeafFits against `availability` and
  // stopping at the first that fits. kNoOption exactly when GenerateJobExpr
  // returns nullopt; kFits exactly when compiling its expression against
  // `availability` keeps a leaf. Allocates nothing.
  ProbeResult Probe(const Job& job, SimTime now,
                    const AvailabilityGrid& availability) const;

  // Value function the generator applies for this job (exposed for tests).
  ValueFunction JobValue(const Job& job) const;

  const StrlGenOptions& options() const { return options_; }

  // Adjusts the plan-ahead window in place (adaptive plan-ahead under
  // overload, DESIGN.md §13). Leaf tags only encode job/start/kind, so
  // options generated under different windows stay warm-start compatible.
  void set_plan_ahead(SimDuration plan_ahead) {
    options_.plan_ahead = plan_ahead;
  }

 private:
  // Calls visitor.Leaf(leaf) for every leaf of the job's option tree in tree
  // order, and visitor.EndStart() after each candidate start; stops when
  // Leaf returns false. The one per-type enumeration behind GenerateJobExpr
  // and Probe (strl_gen.cc).
  template <typename Visitor>
  void ForEachOption(const Job& job, SimTime now, Visitor& visitor) const;

  const Cluster& cluster_;
  StrlGenOptions options_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_CORE_STRL_GEN_H_
