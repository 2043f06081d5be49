#include "src/solver/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace tetrisched {

VarId MilpModel::AddVar(VarType type, double lower, double upper,
                        std::string name) {
  assert(lower <= upper);
  types_.push_back(type);
  lowers_.push_back(lower);
  uppers_.push_back(upper);
  objective_.push_back(0.0);
  var_names_.push_back(std::move(name));
  return static_cast<VarId>(types_.size() - 1);
}

VarId MilpModel::AddContinuousVar(double lower, double upper,
                                  std::string name) {
  return AddVar(VarType::kContinuous, lower, upper, std::move(name));
}

VarId MilpModel::AddIntegerVar(double lower, double upper, std::string name) {
  return AddVar(VarType::kInteger, lower, upper, std::move(name));
}

VarId MilpModel::AddBinaryVar(std::string name) {
  return AddVar(VarType::kBinary, 0.0, 1.0, std::move(name));
}

void MilpModel::Reserve(int vars, int constraints, int64_t terms) {
  types_.reserve(vars);
  lowers_.reserve(vars);
  uppers_.reserve(vars);
  objective_.reserve(vars);
  var_names_.reserve(vars);
  terms_.reserve(terms);
  row_start_.reserve(constraints + 1);
  senses_.reserve(constraints);
  rhs_.reserve(constraints);
  constraint_names_.reserve(constraints);
}

void MilpModel::AddObjectiveTerm(VarId var, double delta) {
  assert(var >= 0 && var < num_vars());
  objective_[var] += delta;
}

ConstraintId MilpModel::AddConstraint(std::vector<LinTerm> terms,
                                      ConstraintSense sense, double rhs,
                                      std::string name) {
  return AddConstraint(std::span<const LinTerm>(terms), sense, rhs,
                       std::move(name));
}

ConstraintId MilpModel::AddConstraint(std::span<const LinTerm> terms,
                                      ConstraintSense sense, double rhs,
                                      std::string name) {
  assert(std::all_of(terms.begin(), terms.end(), [&](const LinTerm& term) {
    return term.var >= 0 && term.var < num_vars();
  }));
  terms_.insert(terms_.end(), terms.begin(), terms.end());
  row_start_.push_back(static_cast<int64_t>(terms_.size()));
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  constraint_names_.push_back(std::move(name));
  return static_cast<ConstraintId>(senses_.size() - 1);
}

std::span<const LinTerm> MilpModel::constraint_terms(ConstraintId c) const {
  int64_t begin = row_start_[c];
  int64_t end = row_start_[c + 1];
  return {terms_.data() + begin, static_cast<size_t>(end - begin)};
}

double MilpModel::ObjectiveValue(std::span<const double> values) const {
  double total = 0.0;
  for (int v = 0; v < num_vars(); ++v) {
    total += objective_[v] * values[v];
  }
  return total;
}

bool MilpModel::IsFeasible(std::span<const double> values, double tol) const {
  if (static_cast<int>(values.size()) != num_vars()) {
    return false;
  }
  for (int v = 0; v < num_vars(); ++v) {
    double x = values[v];
    if (x < lowers_[v] - tol || x > uppers_[v] + tol) {
      return false;
    }
    if (IsIntegerLike(v) && std::abs(x - std::round(x)) > tol) {
      return false;
    }
  }
  for (int c = 0; c < num_constraints(); ++c) {
    double lhs = 0.0;
    for (const LinTerm& term : constraint_terms(c)) {
      lhs += term.coeff * values[term.var];
    }
    switch (senses_[c]) {
      case ConstraintSense::kLessEqual:
        if (lhs > rhs_[c] + tol) {
          return false;
        }
        break;
      case ConstraintSense::kGreaterEqual:
        if (lhs < rhs_[c] - tol) {
          return false;
        }
        break;
      case ConstraintSense::kEqual:
        if (std::abs(lhs - rhs_[c]) > tol) {
          return false;
        }
        break;
    }
  }
  return true;
}

std::string MilpModel::DebugString() const {
  std::ostringstream out;
  out << "maximize ";
  bool first = true;
  for (int v = 0; v < num_vars(); ++v) {
    if (objective_[v] == 0.0) {
      continue;
    }
    if (!first) {
      out << " + ";
    }
    out << objective_[v] << "*x" << v;
    first = false;
  }
  out << "\nsubject to\n";
  for (int c = 0; c < num_constraints(); ++c) {
    out << "  [" << constraint_names_[c] << "] ";
    bool row_first = true;
    for (const LinTerm& term : constraint_terms(c)) {
      if (!row_first) {
        out << " + ";
      }
      out << term.coeff << "*x" << term.var;
      row_first = false;
    }
    switch (senses_[c]) {
      case ConstraintSense::kLessEqual:
        out << " <= ";
        break;
      case ConstraintSense::kGreaterEqual:
        out << " >= ";
        break;
      case ConstraintSense::kEqual:
        out << " == ";
        break;
    }
    out << rhs_[c] << "\n";
  }
  out << "bounds\n";
  for (int v = 0; v < num_vars(); ++v) {
    out << "  " << lowers_[v] << " <= x" << v << " <= " << uppers_[v];
    switch (types_[v]) {
      case VarType::kBinary:
        out << " (bin";
        break;
      case VarType::kInteger:
        out << " (int";
        break;
      case VarType::kContinuous:
        out << " (cont";
        break;
    }
    if (!var_names_[v].empty()) {
      out << " '" << var_names_[v] << "'";
    }
    out << ")\n";
  }
  return out.str();
}

}  // namespace tetrisched
