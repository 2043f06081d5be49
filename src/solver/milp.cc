#include "src/solver/milp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/solver/decompose.h"
#include "src/solver/presolve.h"

namespace tetrisched {
namespace {

using Clock = std::chrono::steady_clock;

// An LP value within this distance of an integer counts as integral.
constexpr double kIntTol = 1e-6;

// Registry-backed solver instruments (DESIGN.md §10). The phase histograms
// attribute each solve's wall-clock to presolve / LP pricing / B&B search;
// the counters aggregate the search's work. Only per-LP-call timing reads a
// clock on the hot path, and it is gated by ObservabilityEnabled().
struct SolverInstruments {
  Histogram* presolve_ms;
  Histogram* lp_ms;                 // per-LP-call latency (root + nodes)
  Histogram* branch_and_bound_ms;   // search wall-clock per solve
  Histogram* decompose_ms;          // detection (+ extraction) per solve
  Histogram* components;            // components per decomposition-checked solve
  Histogram* largest_component_vars;
  Counter* solves;
  Counter* nodes;
  Counter* lp_iterations;
  Counter* incumbent_improvements;
  Counter* presolve_fixed_vars;
  Counter* presolve_dropped_rows;
};

// Power-of-two buckets for count-valued histograms (component counts and
// component sizes, not latencies).
const std::vector<double>& CountBuckets() {
  static const std::vector<double> buckets{1,  2,   4,   8,   16,   32,
                                           64, 128, 256, 512, 1024, 4096};
  return buckets;
}

SolverInstruments& Instruments() {
  MetricsRegistry& registry = GlobalMetrics();
  static SolverInstruments instruments{
      registry.GetHistogram("tetrisched_phase_presolve_ms"),
      registry.GetHistogram("tetrisched_phase_lp_ms"),
      registry.GetHistogram("tetrisched_phase_branch_and_bound_ms"),
      registry.GetHistogram("tetrisched_phase_decompose_ms"),
      registry.GetHistogram("tetrisched_solver_components", CountBuckets()),
      registry.GetHistogram("tetrisched_solver_largest_component_vars",
                            CountBuckets()),
      registry.GetCounter("tetrisched_solver_solves_total"),
      registry.GetCounter("tetrisched_solver_nodes_total"),
      registry.GetCounter("tetrisched_solver_lp_iterations_total"),
      registry.GetCounter("tetrisched_solver_incumbent_improvements_total"),
      registry.GetCounter("tetrisched_solver_presolve_fixed_vars_total"),
      registry.GetCounter("tetrisched_solver_presolve_dropped_rows_total"),
  };
  return instruments;
}

struct BoundChange {
  VarId var;
  double lower;
  double upper;
};

// One branch-and-bound node. Bound tightenings are stored as a single delta
// plus a shared pointer to the (immutable) parent, so creating a node is O(1)
// and deep trees stop copying O(depth) change lists on every branch.
struct Node {
  double bound;  // parent LP bound (optimistic estimate for this node)
  int depth = 0;
  uint64_t seq = 0;  // tie-break for deterministic ordering
  std::shared_ptr<const Node> parent;
  BoundChange delta{-1, 0.0, 0.0};  // delta.var < 0 on the root node
};

struct NodeOrder {
  // Max-heap on bound; deeper nodes win ties (tends to find incumbents),
  // then insertion order for determinism.
  bool operator()(const std::shared_ptr<const Node>& a,
                  const std::shared_ptr<const Node>& b) const {
    if (a->bound != b->bound) {
      return a->bound < b->bound;
    }
    if (a->depth != b->depth) {
      return a->depth < b->depth;
    }
    return a->seq > b->seq;
  }
};

using NodeQueue =
    std::priority_queue<std::shared_ptr<const Node>,
                        std::vector<std::shared_ptr<const Node>>, NodeOrder>;

// Applies the ancestor chain's bound tightenings on top of the root bounds
// already present in lower/upper. Tightenings commute (max on lower, min on
// upper), so walking leaf-to-root is fine.
void ApplyNodeBounds(const Node& node, std::span<double> lower,
                     std::span<double> upper) {
  for (const Node* cur = &node; cur != nullptr; cur = cur->parent.get()) {
    if (cur->delta.var < 0) {
      continue;
    }
    lower[cur->delta.var] = std::max(lower[cur->delta.var], cur->delta.lower);
    upper[cur->delta.var] = std::min(upper[cur->delta.var], cur->delta.upper);
  }
}

// Picks the integer-like variable whose LP value is most fractional,
// preferring binaries (choice indicators) over general integers (partition
// counts) — indicator integrality usually drags the counts along.
int MostFractionalVar(const MilpModel& model, std::span<const double> values) {
  int best_binary = -1;
  double best_binary_score = kIntTol;
  int best_integer = -1;
  double best_integer_score = kIntTol;
  for (int v = 0; v < model.num_vars(); ++v) {
    if (!model.IsIntegerLike(v)) {
      continue;
    }
    double x = values[v];
    double frac = x - std::floor(x);
    double score = std::min(frac, 1.0 - frac);
    if (model.var_type(v) == VarType::kBinary) {
      if (score > best_binary_score) {
        best_binary_score = score;
        best_binary = v;
      }
    } else if (score > best_integer_score) {
      best_integer_score = score;
      best_integer = v;
    }
  }
  return best_binary >= 0 ? best_binary : best_integer;
}

// Rounds integer-like entries to the nearest integer (for clean incumbents).
std::vector<double> RoundedCopy(const MilpModel& model,
                                std::span<const double> values) {
  std::vector<double> rounded(values.begin(), values.end());
  for (int v = 0; v < model.num_vars(); ++v) {
    if (model.IsIntegerLike(v)) {
      rounded[v] = std::round(rounded[v]);
    }
  }
  return rounded;
}

}  // namespace

MilpSolver::MilpSolver(const MilpModel& model, MilpOptions options)
    : model_(model), options_(options) {}

MilpResult MilpSolver::Solve(std::span<const double> warm_start) {
  const auto start_time = Clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(Clock::now() - start_time).count();
  };
  SolverInstruments& ins = Instruments();
  auto millis_since = [](Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  };
  // Per-LP-call latency only reads the clock when observability is on; the
  // iteration counter flush happens at the call sites as before.
  auto timed_lp = [&](LpSolver& lp, std::span<const double> lo,
                      std::span<const double> hi,
                      const LpBasis* warm) -> LpResult {
    if (!ObservabilityEnabled()) {
      return lp.Solve(lo, hi, warm);
    }
    const auto lp_start = Clock::now();
    LpResult lp_result = lp.Solve(lo, hi, warm);
    ins.lp_ms->Observe(millis_since(lp_start));
    return lp_result;
  };

  // A non-positive budget means "no solve attempt": report no-incumbent
  // explicitly so callers exercise their degradation path instead of
  // misreading a trivially empty plan as a decision.
  if (options_.time_limit_seconds <= 0.0) {
    MilpResult result;
    result.status = MilpStatus::kNoSolution;
    result.solve_status = SolveStatus::kNoIncumbent;
    result.solve_seconds = elapsed();
    return result;
  }

  // Hard deadline for this solve: the internal wall-clock limit composed
  // with any external token (earliest wins). Threaded through every LP solve
  // below — root, nodes, diving, presolve recursion, decomposed components
  // — so expiry is honored inside a pivot loop, not just at node boundaries.
  CancelToken deadline;
  deadline.ArmAfterSeconds(options_.time_limit_seconds);
  if (options_.cancel != nullptr &&
      options_.cancel->deadline_nanos() < deadline.deadline_nanos()) {
    deadline.ArmAtNanos(options_.cancel->deadline_nanos());
  }

  if (options_.enable_presolve) {
    const auto presolve_start = Clock::now();
    // The presolve span pauses around the recursive solve of the reduced
    // model (which reports its own setup/root/branch_and_bound spans as
    // siblings) so trace durations stay additive, then resumes for the
    // solution-restore tail.
    std::optional<ScopedSpan> presolve_span;
    presolve_span.emplace("solver.presolve");
    Presolver presolver(model_);
    ins.presolve_fixed_vars->Increment(presolver.num_fixed_vars());
    ins.presolve_dropped_rows->Increment(presolver.num_dropped_rows());
    if (presolver.infeasible()) {
      ins.presolve_ms->Observe(millis_since(presolve_start));
      MilpResult result;
      result.status = MilpStatus::kInfeasible;
      result.solve_seconds = elapsed();
      return result;
    }
    if (presolver.num_fixed_vars() > 0 ||
        presolver.num_dropped_rows() > 0) {
      std::vector<double> projected_warm;
      if (!warm_start.empty() &&
          static_cast<int>(warm_start.size()) == model_.num_vars()) {
        projected_warm = presolver.ProjectSolution(warm_start);
      }
      MilpOptions inner_options = options_;
      inner_options.enable_presolve = false;
      // The inner solve restarts its elapsed clock; the composed token keeps
      // the original absolute deadline binding across the recursion.
      inner_options.cancel = &deadline;
      MilpSolver inner(presolver.reduced(), inner_options);
      // Reduction work ends here; the inner solve reports its own lp /
      // branch_and_bound phases against the reduced model.
      ins.presolve_ms->Observe(millis_since(presolve_start));
      presolve_span.reset();
      MilpResult result = inner.Solve(projected_warm);
      presolve_span.emplace("solver.presolve");
      if (result.HasSolution()) {
        result.values = presolver.RestoreSolution(result.values);
        result.objective = model_.ObjectiveValue(result.values);
      }
      result.best_bound += presolver.objective_offset();
      result.solve_seconds = elapsed();
      return result;
    }
    ins.presolve_ms->Observe(millis_since(presolve_start));
  }

  // Component decomposition (decompose.h / DESIGN.md §12). Runs on the
  // post-presolve model: by this point presolve either found nothing (we fell
  // through above) or this is the inner recursion's frame solving the reduced
  // model, whose severed couplings are exactly what detection exploits. When
  // the model splits, each component is solved as an independent MilpSolver
  // (with enable_decomposition off) and the stitched result returns here;
  // single-component models fall through to the monolithic search below with
  // nothing but an O(nonzeros) detection pass spent.
  if (options_.enable_decomposition) {
    std::optional<ScopedSpan> decompose_span;
    decompose_span.emplace("solver.decompose");
    const auto detect_start = Clock::now();
    Decomposition decomp = DetectComponents(model_);
    const double detect_ms = millis_since(detect_start);
    ins.decompose_ms->Observe(detect_ms);
    ins.components->Observe(std::max(1, decomp.num_components));
    ins.largest_component_vars->Observe(decomp.largest_component_vars());
    if (decomp.Splits()) {
      // Component solves flush their own node / LP-iteration / solve totals
      // into the registry; the stitched frame adds nothing on top. Each
      // component composes its pooled slice with this solve's deadline.
      MilpOptions decomposed_options = options_;
      decomposed_options.cancel = &deadline;
      MilpResult decomposed = SolveDecomposed(model_, decomp,
                                              decomposed_options, warm_start,
                                              detect_ms);
      decomposed.solve_seconds = elapsed();
      return decomposed;
    }
  }

  MilpResult result;
  const int n = model_.num_vars();

  // Covers tableau construction and incumbent seeding (the work between
  // presolve and the root relaxation); closed just before the root LP so
  // solver child spans tile scheduler.solve with no untracked gap.
  std::optional<ScopedSpan> setup_span;
  setup_span.emplace("solver.setup");

  LpOptions lp_options = options_.lp;
  lp_options.cancel = &deadline;
  LpSolver root_lp(model_, lp_options);

  std::vector<double> root_lower(n), root_upper(n);
  for (int v = 0; v < n; ++v) {
    root_lower[v] = model_.lower_bound(v);
    root_upper[v] = model_.upper_bound(v);
  }

  NodeQueue open;
  uint64_t next_seq = 0;
  bool have_incumbent = false;
  double incumbent_obj = -kInfinity;
  std::vector<double> incumbent;
  // True once a warm start or the search itself supplied the incumbent;
  // stays false while only the trivial all-zero fallback is held, which is
  // what distinguishes kTimeLimit/kStall from kNoIncumbent.
  bool real_incumbent = false;
  int nodes = 0;
  long lp_iterations = 0;
  int nodes_since_improvement = 0;

  auto finalize_counts = [&]() {
    result.nodes = nodes;
    result.lp_iterations = lp_iterations;
    result.solve_seconds = elapsed();
    // Flush this solve's totals into the process-wide registry. The
    // presolve-recursion path never reaches here in the outer frame, so the
    // inner solve's flush is the only one and nothing double-counts.
    ins.solves->Increment();
    ins.nodes->Increment(result.nodes);
    ins.lp_iterations->Increment(result.lp_iterations);
  };

  auto offer_incumbent = [&](std::span<const double> values,
                             bool from_search = true) {
    std::vector<double> rounded = RoundedCopy(model_, values);
    if (!model_.IsFeasible(rounded, 1e-5)) {
      return;
    }
    double obj = model_.ObjectiveValue(rounded);
    if (!have_incumbent || obj > incumbent_obj) {
      // Any strict improvement resets the stall counter, including the very
      // first incumbent (the zero-clamped fallback or a warm start).
      ins.incumbent_improvements->Increment();
      nodes_since_improvement = 0;
      incumbent = std::move(rounded);
      incumbent_obj = obj;
      have_incumbent = true;
      real_incumbent = real_incumbent || from_search;
    }
  };

  // Caller-provided warm start (e.g. last cycle's plan), checked first.
  if (!warm_start.empty() && static_cast<int>(warm_start.size()) == n) {
    offer_incumbent(warm_start);
  }
  // Zero-clamped fallback: in scheduling models "assign nothing" is always
  // feasible, which guarantees the solver never returns empty-handed on a
  // time limit.
  {
    std::vector<double> zero(n);
    for (int v = 0; v < n; ++v) {
      zero[v] = std::clamp(0.0, root_lower[v], root_upper[v]);
    }
    offer_incumbent(zero, /*from_search=*/false);
  }

  auto gap_satisfied = [&](double bound) {
    if (!have_incumbent) {
      return false;
    }
    double gap = bound - incumbent_obj;
    if (gap <= options_.abs_gap) {
      return true;
    }
    return gap <= options_.rel_gap * std::max(std::abs(incumbent_obj), 1e-9);
  };

  // Diving heuristic: from a fractional LP point, repeatedly fix the most
  // fractional integer to a rounding (trying the nearer side first, the
  // other side on infeasibility) until integral. Cheap and effective on
  // packing structures; used at the root and periodically during the search.
  auto dive = [&](LpSolver& lp, const std::vector<double>& from_lower,
                  const std::vector<double>& from_upper, LpResult start_relax,
                  const LpBasis* start_basis) {
    std::vector<double> dive_lower = from_lower;
    std::vector<double> dive_upper = from_upper;
    LpResult relax = std::move(start_relax);
    LpBasis basis;
    const LpBasis* warm = start_basis;
    for (int step = 0; step < 2 * n + 16; ++step) {
      int v = MostFractionalVar(model_, relax.values);
      if (v < 0) {
        offer_incumbent(relax.values);
        return;
      }
      double x = relax.values[v];
      double near = std::clamp(std::round(x), dive_lower[v], dive_upper[v]);
      double far = near > x ? std::floor(x) : std::ceil(x);
      far = std::clamp(far, dive_lower[v], dive_upper[v]);

      double saved_lower = dive_lower[v];
      double saved_upper = dive_upper[v];
      dive_lower[v] = near;
      dive_upper[v] = near;
      LpResult next = timed_lp(lp, dive_lower, dive_upper, warm);
      lp_iterations += next.iterations;
      if (next.status == LpStatus::kCancelled) {
        return;  // deadline expired mid-dive; keep whatever incumbent exists
      }
      if (next.status != LpStatus::kOptimal && far != near) {
        dive_lower[v] = far;
        dive_upper[v] = far;
        next = timed_lp(lp, dive_lower, dive_upper, warm);
        lp_iterations += next.iterations;
      }
      if (next.status != LpStatus::kOptimal) {
        // Both roundings failed: release the variable and stop diving.
        dive_lower[v] = saved_lower;
        dive_upper[v] = saved_upper;
        return;
      }
      relax = std::move(next);
      basis = lp.BasisSnapshot();
      warm = &basis;
      if (deadline.Expired()) {
        return;
      }
    }
  };

  setup_span.reset();

  // The whole root phase (relaxation, integrality check, dive); root_lp and
  // root_dive record as children. Closed before branch and bound; on the
  // early-return paths the destructor closes it at function exit.
  std::optional<ScopedSpan> root_span;
  root_span.emplace("solver.root");

  LpResult root = [&] {
    TETRI_SPAN("solver.root_lp");
    return timed_lp(root_lp, root_lower, root_upper, nullptr);
  }();
  lp_iterations += root.iterations;
  nodes = 1;
  if (root.status == LpStatus::kInfeasible) {
    result.status =
        have_incumbent ? MilpStatus::kFeasible : MilpStatus::kInfeasible;
    if (have_incumbent) {
      result.objective = incumbent_obj;
      result.values = incumbent;
      result.best_bound = incumbent_obj;
      // The incumbent (warm start or zero plan) is all the search will get.
      result.solve_status = real_incumbent ? SolveStatus::kOptimal
                                           : SolveStatus::kNoIncumbent;
    }
    finalize_counts();
    return result;
  }
  if (root.status == LpStatus::kUnbounded) {
    result.status = MilpStatus::kUnbounded;
    finalize_counts();
    return result;
  }
  if (root.status == LpStatus::kCancelled) {
    // Deadline expired inside the root relaxation. Return the best incumbent
    // held so far (warm start or the zero-clamped fallback); the relaxation
    // never finished, so no honest bound exists.
    if (have_incumbent) {
      result.status = MilpStatus::kFeasible;
      result.objective = incumbent_obj;
      result.values = incumbent;
      result.best_bound = kInfinity;
      result.solve_status = real_incumbent ? SolveStatus::kTimeLimit
                                           : SolveStatus::kNoIncumbent;
    } else {
      result.status = MilpStatus::kNoSolution;
      result.solve_status = SolveStatus::kNoIncumbent;
    }
    finalize_counts();
    return result;
  }

  LpBasis root_basis = root_lp.BasisSnapshot();
  // An LP stopped at the iteration limit bounds nothing (and, stopped in
  // phase 1, holds no point to dive from): the root enters the search with
  // an infinite bound, and its re-solve there decides.
  const bool root_solved = root.status == LpStatus::kOptimal;
  if (!root_solved) {
    TETRI_LOG(kWarning) << "LP iteration limit at root; no root bound";
  } else if (MostFractionalVar(model_, root.values) < 0) {
    offer_incumbent(root.values);
    result.status = MilpStatus::kOptimal;
    result.solve_status = SolveStatus::kOptimal;
    result.objective = incumbent_obj;
    result.values = incumbent;
    result.best_bound = root.objective;
    finalize_counts();
    return result;
  } else {
    TETRI_SPAN("solver.root_dive");
    dive(root_lp, root_lower, root_upper, root, &root_basis);
  }

  {
    auto node = std::make_shared<Node>();
    node->bound = root_solved ? root.objective : kInfinity;
    node->seq = next_seq++;
    open.push(std::move(node));
  }

  constexpr int kDiveEvery = 64;

  // Largest bound of a node dropped without closing its subtree: its LP was
  // cancelled or stopped at the iteration limit, or a dive from it met the
  // gap. It caps the optimum just as an open node does, so every bound test
  // below includes it.
  double lost_bound = -kInfinity;
  auto open_bound = [&] {
    return open.empty() ? lost_bound
                        : std::max(lost_bound, open.top()->bound);
  };
  bool limits_hit = false;
  bool stall_hit = false;  // limits_hit specifically via stall_node_limit
  bool found_unbounded = false;

  root_span.reset();

  // Best-bound branch and bound on the calling thread, so node order, node
  // counts and the result depend on the model and the options alone, unless
  // the wall-clock limit cuts the search. `lp` carries the warm-start basis
  // of the last node it solved.
  {
    TETRI_SPAN("solver.branch_and_bound");
    const auto bnb_start = Clock::now();
    LpSolver lp(model_, lp_options);
    LpBasis last_basis = root_basis;
    std::vector<double> lower(n), upper(n);
    while (!open.empty()) {
      if (nodes >= options_.max_nodes || deadline.Expired()) {
        limits_hit = true;
        break;
      }
      if (options_.stall_node_limit > 0 && have_incumbent &&
          nodes_since_improvement >= options_.stall_node_limit) {
        limits_hit = true;
        stall_hit = true;
        break;
      }
      if (gap_satisfied(open_bound())) {
        break;
      }
      std::shared_ptr<const Node> node = open.top();
      open.pop();
      if (have_incumbent && node->bound <= incumbent_obj + options_.abs_gap) {
        continue;  // cannot improve on the incumbent
      }

      std::copy(root_lower.begin(), root_lower.end(), lower.begin());
      std::copy(root_upper.begin(), root_upper.end(), upper.begin());
      ApplyNodeBounds(*node, lower, upper);

      LpResult relax = timed_lp(lp, lower, upper, &last_basis);
      ++nodes;
      ++nodes_since_improvement;
      lp_iterations += relax.iterations;

      if (relax.status == LpStatus::kInfeasible) {
        continue;  // subtree empty
      }
      if (relax.status == LpStatus::kUnbounded) {
        found_unbounded = true;
        break;
      }
      if (relax.status == LpStatus::kCancelled ||
          relax.status == LpStatus::kIterationLimit) {
        // The subtree goes unexplored, not pruned: its bound stays in the
        // reported bound. A cancelled LP means the deadline passed.
        lost_bound = std::max(lost_bound, node->bound);
        if (relax.status == LpStatus::kCancelled) {
          limits_hit = true;
          break;
        }
        TETRI_LOG(kWarning) << "LP iteration limit inside B&B node; "
                               "subtree left unexplored";
        continue;
      }
      last_basis = lp.BasisSnapshot();
      const double node_bound = std::min(node->bound, relax.objective);
      if (have_incumbent && node_bound <= incumbent_obj + options_.abs_gap) {
        continue;
      }
      const int branch_var = MostFractionalVar(model_, relax.values);
      if (branch_var < 0) {
        offer_incumbent(relax.values);
        continue;
      }
      if (nodes % kDiveEvery == 0) {
        dive(lp, lower, upper, relax, &last_basis);
        if (gap_satisfied(node_bound)) {
          lost_bound = std::max(lost_bound, node_bound);
          continue;
        }
      }
      const double branch_x = relax.values[branch_var];
      auto down = std::make_shared<Node>();
      down->bound = node_bound;
      down->depth = node->depth + 1;
      down->seq = next_seq++;
      down->parent = node;
      down->delta = {branch_var, -kInfinity, std::floor(branch_x)};
      open.push(std::move(down));

      auto up = std::make_shared<Node>();
      up->bound = node_bound;
      up->depth = node->depth + 1;
      up->seq = next_seq++;
      up->parent = node;
      up->delta = {branch_var, std::ceil(branch_x), kInfinity};
      open.push(std::move(up));
    }
    ins.branch_and_bound_ms->Observe(millis_since(bnb_start));
  }

  // Result assembly (incumbent copy, status classification) until return.
  TETRI_SPAN("solver.finalize");

  finalize_counts();
  if (found_unbounded) {
    result.status = MilpStatus::kUnbounded;
    return result;
  }
  // The optimum is the incumbent or lies in a subtree the search did not
  // close, so the reported bound never sits below the incumbent.
  result.best_bound = open_bound();
  if (!have_incumbent) {
    result.status =
        limits_hit ? MilpStatus::kNoSolution : MilpStatus::kInfeasible;
    return result;
  }
  result.best_bound = std::max(result.best_bound, incumbent_obj);
  result.objective = incumbent_obj;
  result.values = incumbent;
  if (result.best_bound <= incumbent_obj + options_.abs_gap) {
    result.status = MilpStatus::kOptimal;
    result.solve_status = SolveStatus::kOptimal;
  } else if (gap_satisfied(result.best_bound)) {
    result.status = MilpStatus::kGapLimit;
    result.solve_status = SolveStatus::kGapMet;
  } else {
    result.status = MilpStatus::kFeasible;
    // A limits-hit search that never improved on the trivial zero plan is
    // operationally a failed solve, however "feasible" it looks.
    if (!real_incumbent) {
      result.solve_status = SolveStatus::kNoIncumbent;
    } else {
      result.solve_status =
          stall_hit ? SolveStatus::kStall : SolveStatus::kTimeLimit;
    }
  }
  return result;
}

}  // namespace tetrisched
