#include "src/solver/presolve.h"

#include <algorithm>
#include <cmath>

namespace tetrisched {
namespace {

constexpr double kTol = 1e-9;
constexpr int kMaxPasses = 10;

}  // namespace

Presolver::Presolver(const MilpModel& original) : original_(original) {
  const int n = original.num_vars();
  const int m = original.num_constraints();

  std::vector<double> lb(n), ub(n);
  for (int v = 0; v < n; ++v) {
    lb[v] = original.lower_bound(v);
    ub[v] = original.upper_bound(v);
  }
  std::vector<bool> row_dropped(m, false);

  auto round_integral = [&](int v) {
    if (original.IsIntegerLike(v)) {
      lb[v] = std::ceil(lb[v] - 1e-6);
      ub[v] = std::floor(ub[v] + 1e-6);
    }
  };
  for (int v = 0; v < n; ++v) {
    round_integral(v);
    if (lb[v] > ub[v] + kTol) {
      infeasible_ = true;
      return;
    }
  }

  auto is_fixed = [&](int v) { return ub[v] - lb[v] <= kTol; };

  // Fixpoint: singleton rows tighten bounds; newly fixed variables turn
  // other rows into singletons.
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (int c = 0; c < m; ++c) {
      if (row_dropped[c]) {
        continue;
      }
      double fixed_sum = 0.0;
      int free_var = -1;
      double free_coeff = 0.0;
      int free_count = 0;
      for (const LinTerm& term : original.constraint_terms(c)) {
        if (term.coeff == 0.0) {
          continue;
        }
        if (is_fixed(term.var)) {
          fixed_sum += term.coeff * lb[term.var];
        } else if (free_count == 1 && term.var == free_var) {
          free_coeff += term.coeff;  // duplicate mention of the same var
        } else {
          ++free_count;
          free_var = term.var;
          free_coeff = term.coeff;
          if (free_count > 1) {
            break;
          }
        }
      }
      if (free_count > 1) {
        continue;
      }
      double residual = original.constraint_rhs(c) - fixed_sum;
      ConstraintSense sense = original.constraint_sense(c);
      if (free_count == 0) {
        // Fully fixed row: verify or declare infeasible.
        bool ok = true;
        switch (sense) {
          case ConstraintSense::kLessEqual:
            ok = 0.0 <= residual + 1e-7;
            break;
          case ConstraintSense::kGreaterEqual:
            ok = 0.0 >= residual - 1e-7;
            break;
          case ConstraintSense::kEqual:
            ok = std::abs(residual) <= 1e-7;
            break;
        }
        if (!ok) {
          infeasible_ = true;
          return;
        }
        row_dropped[c] = true;
        ++num_dropped_rows_;
        changed = true;
        continue;
      }
      if (free_coeff == 0.0) {
        continue;
      }
      // Singleton row: a * x {<=,>=,=} residual.
      double bound = residual / free_coeff;
      bool upper = (sense == ConstraintSense::kLessEqual) == (free_coeff > 0);
      switch (sense) {
        case ConstraintSense::kEqual:
          lb[free_var] = std::max(lb[free_var], bound);
          ub[free_var] = std::min(ub[free_var], bound);
          break;
        default:
          if (upper) {
            ub[free_var] = std::min(ub[free_var], bound);
          } else {
            lb[free_var] = std::max(lb[free_var], bound);
          }
          break;
      }
      round_integral(free_var);
      if (lb[free_var] > ub[free_var] + 1e-7) {
        infeasible_ = true;
        return;
      }
      row_dropped[c] = true;
      ++num_dropped_rows_;
      changed = true;
    }
    if (!changed) {
      break;
    }
  }

  // Build the reduced model, sized exactly up front: a counting pass over the
  // surviving rows, then every row appended from one reused buffer.
  int reduced_vars = 0;
  for (int v = 0; v < n; ++v) {
    reduced_vars += is_fixed(v) ? 0 : 1;
  }
  int reduced_rows = 0;
  int64_t reduced_terms = 0;
  size_t widest_row = 0;
  for (int c = 0; c < m; ++c) {
    if (row_dropped[c]) {
      continue;
    }
    ++reduced_rows;
    std::span<const LinTerm> terms = original.constraint_terms(c);
    size_t kept = 0;
    for (const LinTerm& term : terms) {
      kept += is_fixed(term.var) ? 0 : 1;
    }
    reduced_terms += static_cast<int64_t>(kept);
    widest_row = std::max(widest_row, kept);
  }
  reduced_.Reserve(reduced_vars, reduced_rows, reduced_terms);

  var_map_.assign(n, -1);
  fixed_value_.assign(n, 0.0);
  for (int v = 0; v < n; ++v) {
    if (is_fixed(v)) {
      fixed_value_[v] = lb[v];
      objective_offset_ += original.objective_coeff(v) * lb[v];
      ++num_fixed_;
      continue;
    }
    VarId reduced_id = -1;
    switch (original.var_type(v)) {
      case VarType::kContinuous:
        reduced_id = reduced_.AddContinuousVar(lb[v], ub[v],
                                               original.var_name(v));
        break;
      case VarType::kBinary:
        if (lb[v] == 0.0 && ub[v] == 1.0) {
          reduced_id = reduced_.AddBinaryVar(original.var_name(v));
        } else {
          reduced_id =
              reduced_.AddIntegerVar(lb[v], ub[v], original.var_name(v));
        }
        break;
      case VarType::kInteger:
        reduced_id =
            reduced_.AddIntegerVar(lb[v], ub[v], original.var_name(v));
        break;
    }
    reduced_.AddObjectiveTerm(reduced_id, original.objective_coeff(v));
    var_map_[v] = reduced_id;
  }

  std::vector<LinTerm> terms;
  terms.reserve(widest_row);
  for (int c = 0; c < m; ++c) {
    if (row_dropped[c]) {
      continue;
    }
    terms.clear();
    double rhs = original.constraint_rhs(c);
    for (const LinTerm& term : original.constraint_terms(c)) {
      if (var_map_[term.var] >= 0) {
        terms.push_back({var_map_[term.var], term.coeff});
      } else {
        rhs -= term.coeff * fixed_value_[term.var];
      }
    }
    reduced_.AddConstraint(std::span<const LinTerm>(terms),
                           original.constraint_sense(c), rhs,
                           original.constraint_name(c));
  }
}

std::vector<double> Presolver::RestoreSolution(
    std::span<const double> reduced_values) const {
  std::vector<double> values(original_.num_vars());
  for (int v = 0; v < original_.num_vars(); ++v) {
    values[v] = var_map_[v] >= 0 ? reduced_values[var_map_[v]]
                                 : fixed_value_[v];
  }
  return values;
}

std::vector<double> Presolver::ProjectSolution(
    std::span<const double> original_values) const {
  std::vector<double> values(reduced_.num_vars(), 0.0);
  for (int v = 0; v < original_.num_vars(); ++v) {
    if (var_map_[v] >= 0) {
      values[var_map_[v]] = original_values[v];
    } else if (std::abs(original_values[v] - fixed_value_[v]) > 1e-6) {
      return {};  // conflicts with a presolve fixing
    }
  }
  return values;
}

}  // namespace tetrisched
