#include "src/solver/certify.h"

#include <cmath>
#include <cstdio>

#include "src/common/metrics.h"

namespace tetrisched {
namespace {

Counter* CertifierRejects() {
  static Counter* counter =
      GlobalMetrics().GetCounter("tetrisched_certifier_rejects_total");
  return counter;
}

std::string Describe(const char* what, int index, double magnitude) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (index %d, violation %.3g)", what, index,
                magnitude);
  return buf;
}

}  // namespace

CertifyReport CertifyPlan(const MilpModel& model, const MilpResult& result,
                          const MilpOptions& options, CertifyOptions certify) {
  CertifyReport report;
  auto reject = [&](std::string failure) -> CertifyReport& {
    report.ok = false;
    if (report.failure.empty()) {
      report.failure = std::move(failure);
    }
    return report;
  };

  if (!result.HasSolution() ||
      static_cast<int>(result.values.size()) != model.num_vars()) {
    reject("incumbent missing or wrong dimension");
    CertifierRejects()->Increment();
    return report;
  }

  report.ok = true;

  // Bounds and integrality, against the original (pre-presolve) bounds.
  for (int v = 0; v < model.num_vars(); ++v) {
    const double x = result.values[v];
    if (!std::isfinite(x)) {
      reject(Describe("non-finite value", v, 0.0));
      break;
    }
    if (x < model.lower_bound(v) - certify.feas_tol ||
        x > model.upper_bound(v) + certify.feas_tol) {
      const double viol = std::max(model.lower_bound(v) - x,
                                   x - model.upper_bound(v));
      reject(Describe("variable bound violated", v, viol));
      break;
    }
    if (model.IsIntegerLike(v) &&
        std::abs(x - std::round(x)) > certify.int_tol) {
      reject(Describe("integrality violated", v, std::abs(x - std::round(x))));
      break;
    }
  }

  // Every constraint row, re-evaluated from scratch.
  for (int c = 0; c < model.num_constraints(); ++c) {
    double lhs = 0.0;
    for (const LinTerm& term : model.constraint_terms(c)) {
      lhs += term.coeff * result.values[term.var];
    }
    const double rhs = model.constraint_rhs(c);
    const double tol = certify.feas_tol * std::max(1.0, std::abs(rhs));
    double viol = 0.0;
    switch (model.constraint_sense(c)) {
      case ConstraintSense::kLessEqual:
        viol = lhs - rhs;
        break;
      case ConstraintSense::kGreaterEqual:
        viol = rhs - lhs;
        break;
      case ConstraintSense::kEqual:
        viol = std::abs(lhs - rhs);
        break;
    }
    if (viol > tol) {
      ++report.violated_rows;
      if (report.ok) {
        reject(Describe("constraint row violated", c, viol));
      }
    }
  }

  // Claimed objective must match a recomputation from the committed values.
  const double recomputed = model.ObjectiveValue(result.values);
  report.objective_error = std::abs(recomputed - result.objective);
  if (report.objective_error >
      certify.obj_tol * std::max(1.0, std::abs(recomputed))) {
    reject(Describe("objective mismatch", -1, report.objective_error));
  }

  // A finite bound must actually bound the incumbent from above (the model
  // is a maximization); a bound below the incumbent is internally
  // inconsistent no matter what status the solve claims.
  if (std::isfinite(result.best_bound) &&
      result.best_bound <
          recomputed - (options.abs_gap + certify.gap_slop)) {
    reject(Describe("bound below incumbent", -1,
                    recomputed - result.best_bound));
  }

  // Gap audit: only when the solve *claims* a proven gap. kTimeLimit,
  // kStall and kNoIncumbent make no gap claim, and an infinite bound (e.g. a
  // root LP cut off mid-solve) honestly claims nothing.
  if ((result.solve_status == SolveStatus::kOptimal ||
       result.solve_status == SolveStatus::kGapMet) &&
      std::isfinite(result.best_bound)) {
    const double gap = result.best_bound - recomputed;
    const double allowed =
        result.solve_status == SolveStatus::kOptimal
            ? options.abs_gap + certify.gap_slop
            : std::max(options.abs_gap,
                       options.rel_gap * std::max(std::abs(recomputed), 1e-9)) +
                  certify.gap_slop;
    if (gap > allowed) {
      reject(Describe("claimed gap not covered by bound", -1, gap - allowed));
    }
  }

  if (!report.ok) {
    CertifierRejects()->Increment();
  }
  return report;
}

}  // namespace tetrisched
