#include "src/solver/decompose.h"

#include <cmath>
#include <numeric>
#include <utility>

namespace tetrisched {
namespace {

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

SolveStatus MergeSolveStatus(SolveStatus a, SolveStatus b) {
  // A proof about one component holds for the whole model.
  for (SolveStatus proof :
       {SolveStatus::kInfeasible, SolveStatus::kUnbounded}) {
    if (a == proof || b == proof) {
      return proof;
    }
  }
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

std::vector<Component> ExtractComponents(const MilpModel& model,
                                         const Decomposition& decomp,
                                         const MilpOptions& options,
                                         std::span<const double> warm_start) {
  const int n = model.num_vars();
  const int m = model.num_constraints();
  const int k = decomp.num_components;

  // One sub-model per component, original variable order preserved, so
  // local ids are a monotone remap of the original ids.
  std::vector<Component> components(k);
  std::vector<int32_t> local(n, -1);  // original var -> id in its component
  for (int v = 0; v < n; ++v) {
    const int32_t comp = decomp.var_component[v];
    if (comp < 0) {
      continue;  // free variable, stitched analytically
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
  // component independently (each component search re-verifies feasibility
  // of its slice and silently drops an infeasible one).
  const bool have_warm = static_cast<int>(warm_start.size()) == n;

  // Budget apportionment by variable share. Node/gap/stall budgets are
  // fixed shares (they sum to 1, so total work never exceeds the monolithic
  // budget); wall-clock is sliced from the solve's one deadline by a
  // DeadlinePool when each component starts. Floors keep a tiny component
  // from being starved below one root solve.
  int total_vars = 0;
  for (int comp = 0; comp < k; ++comp) {
    total_vars += decomp.component_vars[comp];
  }
  for (int comp = 0; comp < k; ++comp) {
    Component& component = components[comp];
    const double share =
        static_cast<double>(decomp.component_vars[comp]) / total_vars;
    component.options = options;
    component.options.max_nodes =
        std::max(64, static_cast<int>(options.max_nodes * share));
    component.options.abs_gap = std::max(1e-9, options.abs_gap * share);
    if (options.stall_node_limit > 0) {
      component.options.stall_node_limit =
          std::max(32, static_cast<int>(options.stall_node_limit * share));
    }
    if (have_warm) {
      component.warm.resize(component.vars.size());
      for (size_t i = 0; i < component.vars.size(); ++i) {
        component.warm[i] = warm_start[component.vars[i]];
      }
    }
  }
  return components;
}

MilpResult StitchComponents(const MilpModel& model, const Decomposition& decomp,
                            const std::vector<Component>& components) {
  const int n = model.num_vars();
  MilpResult merged;
  merged.components = static_cast<int>(components.size());
  for (const Component& component : components) {
    merged.nodes += component.result.nodes;
    merged.lp_iterations += component.result.lp_iterations;
    merged.max_component_ms =
        std::max(merged.max_component_ms, component.seconds * 1e3);
  }

  SolveStatus status = components[0].result.solve_status;
  for (size_t comp = 1; comp < components.size(); ++comp) {
    status = MergeSolveStatus(status, components[comp].result.solve_status);
  }
  if (status == SolveStatus::kInfeasible ||
      status == SolveStatus::kUnbounded) {
    merged.solve_status = status;  // a proof comes with no assignment
    return merged;
  }
  for (const Component& component : components) {
    if (!component.result.HasSolution()) {
      // Out of budget with no vector at all: no full-model assignment can
      // be claimed.
      merged.solve_status = SolveStatus::kNoIncumbent;
      return merged;
    }
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
      merged.solve_status = SolveStatus::kUnbounded;
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
  merged.solve_status = status;
  return merged;
}

}  // namespace tetrisched
