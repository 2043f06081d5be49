#include "src/solver/decompose.h"

#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/budget.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/common/thread_pool.h"

namespace tetrisched {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// Union-find with path halving + union by rank.
int32_t Find(std::vector<int32_t>& parent, int32_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

void Union(std::vector<int32_t>& parent, std::vector<int32_t>& rank, int32_t a,
           int32_t b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a == b) {
    return;
  }
  if (rank[a] < rank[b]) {
    std::swap(a, b);
  }
  parent[b] = a;
  if (rank[a] == rank[b]) {
    ++rank[a];
  }
}

// Severity rank for the mathematical status merge: the worst claim wins,
// with global conditions (infeasible/unbounded/no-solution) on top.
int StatusRank(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal:
      return 0;
    case MilpStatus::kGapLimit:
      return 1;
    case MilpStatus::kFeasible:
      return 2;
    case MilpStatus::kNoSolution:
      return 3;
    case MilpStatus::kUnbounded:
      return 4;
    case MilpStatus::kInfeasible:
      return 5;
  }
  return 5;
}

// One extracted component: the sub-model, its variable map back into the
// original space, its sliced warm start, its budget share, and its result.
struct Component {
  MilpModel model;
  std::vector<VarId> vars;  // component variable id -> original variable id
  std::vector<double> warm;
  MilpOptions options;
  MilpResult result;
  double weight = 0.0;  // deadline-pool weight (variable count)
};

}  // namespace

Decomposition DetectComponents(const MilpModel& model) {
  const int n = model.num_vars();
  const int m = model.num_constraints();
  Decomposition decomp;
  decomp.var_component.assign(n, -1);
  decomp.row_component.assign(m, -1);

  std::vector<int32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<int32_t> rank(n, 0);
  std::vector<bool> in_row(n, false);

  for (int c = 0; c < m; ++c) {
    std::span<const LinTerm> terms = model.constraint_terms(c);
    if (terms.empty()) {
      // A constant row constrains nothing the splitter can attribute to a
      // component; let the monolithic solver classify it.
      decomp.bypass = true;
      return decomp;
    }
    const VarId first = terms[0].var;
    in_row[first] = true;
    for (size_t i = 1; i < terms.size(); ++i) {
      in_row[terms[i].var] = true;
      Union(parent, rank, first, terms[i].var);
    }
  }

  // Component ids in ascending first-variable order, so extraction and
  // stitching are deterministic regardless of union order.
  std::vector<int32_t> comp_of_root(n, -1);
  for (int v = 0; v < n; ++v) {
    if (!in_row[v]) {
      continue;
    }
    const int32_t root = Find(parent, v);
    if (comp_of_root[root] < 0) {
      comp_of_root[root] = decomp.num_components++;
      decomp.component_vars.push_back(0);
      decomp.component_rows.push_back(0);
    }
    decomp.var_component[v] = comp_of_root[root];
    ++decomp.component_vars[comp_of_root[root]];
  }
  for (int c = 0; c < m; ++c) {
    const int32_t comp =
        decomp.var_component[model.constraint_terms(c)[0].var];
    decomp.row_component[c] = comp;
    ++decomp.component_rows[comp];
  }
  return decomp;
}

MilpStatus MergeMilpStatus(MilpStatus a, MilpStatus b) {
  return StatusRank(a) >= StatusRank(b) ? a : b;
}

SolveStatus MergeSolveStatus(SolveStatus a, SolveStatus b) {
  if (a == SolveStatus::kNoIncumbent && b == SolveStatus::kNoIncumbent) {
    return SolveStatus::kNoIncumbent;
  }
  // A failed component contributes only its zero sub-plan; the merged plan
  // is partial, which operationally is a limits-hit solve, not a failed one.
  if (a == SolveStatus::kNoIncumbent) {
    a = SolveStatus::kTimeLimit;
  }
  if (b == SolveStatus::kNoIncumbent) {
    b = SolveStatus::kTimeLimit;
  }
  return WorstStatus(a, b);
}

MilpResult SolveDecomposed(const MilpModel& model, const Decomposition& decomp,
                           const MilpOptions& options,
                           std::span<const double> warm_start,
                           double detect_ms) {
  const auto start_time = Clock::now();
  const int n = model.num_vars();
  const int m = model.num_constraints();
  const int k = decomp.num_components;
  const int num_workers =
      std::max(1, options.num_threads > 0 ? options.num_threads
                                          : ThreadPool::HardwareThreads());

  // ---- Extraction: one sub-model per component, original variable order
  // preserved, so local ids are a monotone remap of the original ids. ------
  const auto extract_start = Clock::now();
  std::vector<Component> components(k);
  std::vector<int32_t> local(n, -1);  // original var -> id in its component
  for (int v = 0; v < n; ++v) {
    const int32_t comp = decomp.var_component[v];
    if (comp < 0) {
      continue;  // free variable, stitched analytically below
    }
    MilpModel& sub = components[comp].model;
    VarId id = -1;
    switch (model.var_type(v)) {
      case VarType::kBinary:
        id = sub.AddBinaryVar(model.var_name(v));
        break;
      case VarType::kInteger:
        id = sub.AddIntegerVar(model.lower_bound(v), model.upper_bound(v),
                               model.var_name(v));
        break;
      case VarType::kContinuous:
        id = sub.AddContinuousVar(model.lower_bound(v), model.upper_bound(v),
                                  model.var_name(v));
        break;
    }
    if (model.objective_coeff(v) != 0.0) {
      sub.AddObjectiveTerm(id, model.objective_coeff(v));
    }
    components[comp].vars.push_back(v);
    local[v] = id;
  }
  for (int c = 0; c < m; ++c) {
    std::span<const LinTerm> terms = model.constraint_terms(c);
    std::vector<LinTerm> remapped;
    remapped.reserve(terms.size());
    for (const LinTerm& term : terms) {
      remapped.push_back({local[term.var], term.coeff});
    }
    components[decomp.row_component[c]].model.AddConstraint(
        std::move(remapped), model.constraint_sense(c),
        model.constraint_rhs(c), model.constraint_name(c));
  }

  // Warm-start slicing: the cycle's full-model hint projects onto each
  // component independently (each component solver re-verifies feasibility
  // of its slice and silently drops an infeasible one, as before).
  const bool have_warm = static_cast<int>(warm_start.size()) == n;

  // Budget apportionment by variable share. Node/gap/stall budgets are
  // fixed shares (they sum to 1, so total work never exceeds the monolithic
  // budget); wall-clock is handled by a DeadlinePool below, so a component
  // that finishes early donates its unused time to the ones still running
  // instead of stranding it. Floors keep a tiny component from being starved
  // below one root solve.
  int total_vars = 0;
  for (int comp = 0; comp < k; ++comp) {
    total_vars += decomp.component_vars[comp];
  }
  for (int comp = 0; comp < k; ++comp) {
    Component& component = components[comp];
    const double share =
        static_cast<double>(decomp.component_vars[comp]) / total_vars;
    MilpOptions inner = options;
    inner.enable_decomposition = false;  // components are connected
    // Presolve already ran to fixpoint on the full model; its reductions are
    // row-local, so re-running it per component would find nothing.
    inner.enable_presolve = false;
    // time_limit_seconds is acquired from the pool at component start; the
    // parent's composed CancelToken (inner.cancel, when set) stays the hard
    // cap either way.
    inner.max_nodes =
        std::max(64, static_cast<int>(options.max_nodes * share));
    inner.abs_gap = std::max(1e-9, options.abs_gap * share);
    if (options.stall_node_limit > 0) {
      inner.stall_node_limit =
          std::max(32, static_cast<int>(options.stall_node_limit * share));
    }
    component.options = inner;
    component.weight = decomp.component_vars[comp];
    if (have_warm) {
      component.warm.resize(component.vars.size());
      for (size_t i = 0; i < component.vars.size(); ++i) {
        component.warm[i] = warm_start[component.vars[i]];
      }
    }
  }
  const double extract_ms = MillisSince(extract_start);

  // ---- Concurrent component solves. Each task touches only its own slot,
  // and each component's search is single-threaded, so the decomposed solve
  // is deterministic regardless of pool interleaving. ---------------------
  // Wall-clock pool over the solve budget: a component's slice is computed
  // when it *starts*, from the time then remaining and the weight still
  // outstanding, so early finishers' unused time flows to later components
  // (with one thread, the last component may inherit nearly the whole
  // remaining budget; with many, concurrent slices still sum to at most the
  // remaining wall-clock).
  DeadlinePool time_pool(options.time_limit_seconds, total_vars);
  const double floor_seconds = std::min(options.time_limit_seconds, 0.005);
  auto solve_component = [&time_pool, floor_seconds](Component& component) {
    TETRI_SPAN("solver.component");
    component.options.time_limit_seconds =
        time_pool.AcquireSeconds(component.weight, floor_seconds);
    component.result = MilpSolver(component.model, component.options)
                           .Solve(component.warm);
    time_pool.Release(component.weight);
  };
  const int pool_threads = std::min(num_workers, k);
  if (pool_threads <= 1) {
    for (Component& component : components) {
      solve_component(component);
    }
  } else {
    ThreadPool pool(pool_threads);
    // Largest components first so the long poles start immediately and the
    // small ones pack around them.
    std::vector<int> order(k);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return decomp.component_vars[a] > decomp.component_vars[b];
    });
    for (int comp : order) {
      pool.Submit([&solve_component, &components, comp] {
        solve_component(components[comp]);
      });
    }
    pool.Wait();
  }

  // ---- Stitching. --------------------------------------------------------
  MilpResult merged;
  merged.components = k;
  merged.decompose_ms = detect_ms + extract_ms;
  for (const Component& component : components) {
    merged.nodes += component.result.nodes;
    merged.lp_iterations += component.result.lp_iterations;
    merged.max_component_ms = std::max(
        merged.max_component_ms, component.result.solve_seconds * 1e3);
  }

  MilpStatus status = MilpStatus::kOptimal;
  for (const Component& component : components) {
    status = MergeMilpStatus(status, component.result.status);
  }
  merged.status = status;
  if (status == MilpStatus::kInfeasible || status == MilpStatus::kUnbounded ||
      status == MilpStatus::kNoSolution) {
    // No full-model assignment can be claimed: a component proved the model
    // empty/unbounded, or ran out of budget with no vector at all.
    merged.solve_status = SolveStatus::kNoIncumbent;
    merged.solve_seconds =
        std::chrono::duration<double>(Clock::now() - start_time).count();
    return merged;
  }

  // Every component holds a feasible sub-assignment: stitch them, then fill
  // the free variables (no constraints) at their objective-maximizing bound.
  std::vector<double> values(n, 0.0);
  for (const Component& component : components) {
    for (size_t i = 0; i < component.vars.size(); ++i) {
      values[component.vars[i]] = component.result.values[i];
    }
  }
  double free_objective = 0.0;
  for (int v = 0; v < n; ++v) {
    if (decomp.var_component[v] >= 0) {
      continue;
    }
    const double coeff = model.objective_coeff(v);
    double value;
    if (coeff > 0.0) {
      value = model.upper_bound(v);
    } else if (coeff < 0.0) {
      value = model.lower_bound(v);
    } else {
      value = std::clamp(0.0, model.lower_bound(v), model.upper_bound(v));
    }
    if (std::isinf(value)) {
      merged.status = MilpStatus::kUnbounded;
      merged.solve_status = SolveStatus::kNoIncumbent;
      merged.values.clear();
      merged.solve_seconds =
          std::chrono::duration<double>(Clock::now() - start_time).count();
      return merged;
    }
    if (model.IsIntegerLike(v)) {
      value = coeff > 0.0 ? std::floor(value) : std::ceil(value);
    }
    values[v] = value;
    free_objective += coeff * value;
  }

  merged.values = std::move(values);
  merged.objective = model.ObjectiveValue(merged.values);
  merged.best_bound = free_objective;
  for (const Component& component : components) {
    merged.best_bound += component.result.best_bound;
  }
  SolveStatus solve_status = components[0].result.solve_status;
  for (int comp = 1; comp < k; ++comp) {
    solve_status =
        MergeSolveStatus(solve_status, components[comp].result.solve_status);
  }
  merged.solve_status = solve_status;
  merged.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start_time).count();
  return merged;
}

}  // namespace tetrisched
