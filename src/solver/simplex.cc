#include "src/solver/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tetrisched {
namespace {

// Pivot iterations between cooperative deadline polls (power of two; each
// poll is one clock read, so this just keeps the clock off the per-pivot
// path).
constexpr int kCancelPollMask = 15;

// Fixed numerics of the pivot loop.
constexpr int kMaxIterations = 50000;
constexpr double kFeasTol = 1e-7;   // bound / constraint feasibility
constexpr double kCostTol = 1e-7;   // reduced-cost optimality threshold
constexpr double kPivotTol = 1e-9;  // minimum acceptable pivot magnitude
constexpr int kRefactorEvery = 150;  // rebuild basis inverse every N pivots

Counter* BlandActivations() {
  static Counter* counter =
      GlobalMetrics().GetCounter("tetrisched_solver_bland_activations_total");
  return counter;
}

// Partial pricing: variables are scanned one rotating section at a time, and
// only when the current section has no improving candidate does the scan
// widen to the rest. A section is total_/kPricingSections variables but never
// fewer than kMinPricingSection, so small models (every unit-test model)
// degenerate to the exact full Dantzig scan.
constexpr int kPricingSections = 8;
constexpr int kMinPricingSection = 128;

}  // namespace

LpSolver::LpSolver(const MilpModel& model, LpOptions options)
    : model_(model), options_(options) {
  n_ = model.num_vars();
  m_ = model.num_constraints();
  total_ = n_ + m_;

  // Columns of [A | I] as one CSC block. A counting pass sizes every column
  // (col_start_[v + 1] holds column v's length), a prefix sum turns lengths
  // into offsets, and a fill pass in row order appends each entry at its
  // column's cursor, so every column lists its rows in ascending order.
  col_start_.assign(total_ + 1, 0);
  for (int c = 0; c < m_; ++c) {
    for (const LinTerm& term : model.constraint_terms(c)) {
      ++col_start_[term.var + 1];
    }
    col_start_[n_ + c + 1] = 1;  // slack column: unit vector on this row
  }
  for (int v = 0; v < total_; ++v) {
    col_start_[v + 1] += col_start_[v];
  }
  col_entries_.resize(col_start_[total_]);
  rhs_b_.assign(m_, 0.0);
  for (int c = 0; c < m_; ++c) {
    rhs_b_[c] = model.constraint_rhs(c);
    for (const LinTerm& term : model.constraint_terms(c)) {
      col_entries_[col_start_[term.var]++] = {c, term.coeff};
    }
    col_entries_[col_start_[n_ + c]++] = {c, 1.0};
  }
  // Each cursor now sits at the next column's start. Walk the columns again,
  // restoring the offsets and merging duplicate mentions of a variable within
  // a row (adjacent, summed in term order) by compacting in place.
  int64_t out = 0;
  int64_t begin = 0;
  for (int v = 0; v < total_; ++v) {
    const int64_t end = col_start_[v];
    col_start_[v] = out;
    for (int64_t i = begin; i < end; ++i) {
      const ColEntry entry = col_entries_[i];
      if (out > col_start_[v] && col_entries_[out - 1].row == entry.row) {
        col_entries_[out - 1].coeff += entry.coeff;
      } else {
        col_entries_[out++] = entry;
      }
    }
    begin = end;
  }
  col_start_[total_] = out;
  col_entries_.resize(out);

  obj_.assign(total_, 0.0);
  for (int v = 0; v < n_; ++v) {
    obj_[v] = model.objective_coeff(v);
  }
}

void LpSolver::InstallBounds(std::span<const double> lower,
                             std::span<const double> upper) {
  lb_.assign(total_, 0.0);
  ub_.assign(total_, 0.0);
  for (int v = 0; v < n_; ++v) {
    lb_[v] = lower[v];
    ub_[v] = upper[v];
  }
  for (int c = 0; c < m_; ++c) {
    switch (model_.constraint_sense(c)) {
      case ConstraintSense::kLessEqual:
        lb_[n_ + c] = 0.0;
        ub_[n_ + c] = kInfinity;
        break;
      case ConstraintSense::kGreaterEqual:
        lb_[n_ + c] = -kInfinity;
        ub_[n_ + c] = 0.0;
        break;
      case ConstraintSense::kEqual:
        lb_[n_ + c] = 0.0;
        ub_[n_ + c] = 0.0;
        break;
    }
  }
}

void LpSolver::InstallSlackBasis() {
  basic_.assign(m_, 0);
  status_.assign(total_, Status::kAtLower);
  x_.assign(total_, 0.0);
  for (int v = 0; v < total_; ++v) {
    if (std::isfinite(lb_[v])) {
      status_[v] = Status::kAtLower;
      x_[v] = lb_[v];
    } else if (std::isfinite(ub_[v])) {
      status_[v] = Status::kAtUpper;
      x_[v] = ub_[v];
    } else {
      status_[v] = Status::kFreeZero;
      x_[v] = 0.0;
    }
  }
  for (int c = 0; c < m_; ++c) {
    basic_[c] = n_ + c;
    status_[n_ + c] = Status::kBasic;
  }
  binv_.assign(static_cast<size_t>(m_) * m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    Binv(i, i) = 1.0;
  }
  pivots_since_refactor_ = 0;
}

bool LpSolver::InstallWarmBasis(const LpBasis& warm) {
  if (static_cast<int>(warm.basic.size()) != m_ ||
      static_cast<int>(warm.status.size()) != total_) {
    return false;
  }
  basic_.assign(warm.basic.begin(), warm.basic.end());
  status_.assign(total_, Status::kAtLower);
  x_.assign(total_, 0.0);
  std::vector<bool> is_basic(total_, false);
  for (int i = 0; i < m_; ++i) {
    if (basic_[i] < 0 || basic_[i] >= total_ || is_basic[basic_[i]]) {
      return false;
    }
    is_basic[basic_[i]] = true;
  }
  for (int v = 0; v < total_; ++v) {
    if (is_basic[v]) {
      status_[v] = Status::kBasic;
      continue;
    }
    Status s = static_cast<Status>(warm.status[v]);
    if (s == Status::kAtUpper && std::isfinite(ub_[v])) {
      status_[v] = Status::kAtUpper;
      x_[v] = ub_[v];
    } else if (std::isfinite(lb_[v])) {
      status_[v] = Status::kAtLower;
      x_[v] = lb_[v];
    } else if (std::isfinite(ub_[v])) {
      status_[v] = Status::kAtUpper;
      x_[v] = ub_[v];
    } else {
      status_[v] = Status::kFreeZero;
      x_[v] = 0.0;
    }
  }
  // Build the inverse of the warm basis; a singular snapshot is rejected.
  binv_.assign(static_cast<size_t>(m_) * m_, 0.0);
  std::vector<double> bmat(static_cast<size_t>(m_) * m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    for (const ColEntry& e : Column(basic_[i])) {
      bmat[static_cast<size_t>(e.row) * m_ + i] = e.coeff;
    }
    Binv(i, i) = 1.0;
  }
  // Gauss-Jordan with partial pivoting on the augmented [B | I]. O(m^3), so
  // on large bases this is the one place a deadline could silently slip by a
  // whole refactorization: poll the token per column and bail (the caller
  // falls back to the slack basis, and Iterate notices the expiry on its
  // first poll).
  for (int col = 0; col < m_; ++col) {
    if ((col & kCancelPollMask) == 0 && options_.deadline.Expired()) {
      return false;
    }
    int pivot_row = col;
    double best = std::abs(bmat[static_cast<size_t>(col) * m_ + col]);
    for (int r = col + 1; r < m_; ++r) {
      double mag = std::abs(bmat[static_cast<size_t>(r) * m_ + col]);
      if (mag > best) {
        best = mag;
        pivot_row = r;
      }
    }
    if (best < 1e-11) {
      return false;
    }
    if (pivot_row != col) {
      for (int j = 0; j < m_; ++j) {
        std::swap(bmat[static_cast<size_t>(col) * m_ + j],
                  bmat[static_cast<size_t>(pivot_row) * m_ + j]);
        std::swap(Binv(col, j), Binv(pivot_row, j));
      }
    }
    double inv_pivot = 1.0 / bmat[static_cast<size_t>(col) * m_ + col];
    for (int j = 0; j < m_; ++j) {
      bmat[static_cast<size_t>(col) * m_ + j] *= inv_pivot;
      Binv(col, j) *= inv_pivot;
    }
    for (int r = 0; r < m_; ++r) {
      if (r == col) {
        continue;
      }
      double factor = bmat[static_cast<size_t>(r) * m_ + col];
      if (factor == 0.0) {
        continue;
      }
      for (int j = 0; j < m_; ++j) {
        bmat[static_cast<size_t>(r) * m_ + j] -=
            factor * bmat[static_cast<size_t>(col) * m_ + j];
        Binv(r, j) -= factor * Binv(col, j);
      }
    }
  }
  pivots_since_refactor_ = 0;
  return true;
}

void LpSolver::RefactorizeOrReset() {
  LpBasis snapshot = BasisSnapshot();
  if (!InstallWarmBasis(snapshot)) {
    // A cancelled rebuild is expected (Iterate returns kCancelled right
    // after); only a genuinely singular basis deserves the warning.
    if (!options_.deadline.Expired()) {
      TETRI_LOG(kWarning) << "singular basis during refactorization; resetting";
    }
    InstallSlackBasis();
  }
}

void LpSolver::RecomputeBasicValues() {
  std::vector<double>& residual = residual_;
  residual.assign(rhs_b_.begin(), rhs_b_.end());
  for (int v = 0; v < total_; ++v) {
    if (status_[v] == Status::kBasic || x_[v] == 0.0) {
      continue;
    }
    for (const ColEntry& e : Column(v)) {
      residual[e.row] -= e.coeff * x_[v];
    }
  }
  for (int i = 0; i < m_; ++i) {
    double sum = 0.0;
    const double* row = &binv_[static_cast<size_t>(i) * m_];
    for (int k = 0; k < m_; ++k) {
      sum += row[k] * residual[k];
    }
    x_[basic_[i]] = sum;
  }
}

double LpSolver::ColumnDot(int var, std::span<const double> row_vec) const {
  double sum = 0.0;
  for (const ColEntry& e : Column(var)) {
    sum += e.coeff * row_vec[e.row];
  }
  return sum;
}

void LpSolver::ComputeTableauColumn(int var, std::vector<double>& out) const {
  out.assign(m_, 0.0);
  for (const ColEntry& e : Column(var)) {
    const double coeff = e.coeff;
    const size_t col = static_cast<size_t>(e.row);
    for (int i = 0; i < m_; ++i) {
      out[i] += binv_[static_cast<size_t>(i) * m_ + col] * coeff;
    }
  }
}

double LpSolver::TotalInfeasibility() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    int v = basic_[i];
    if (x_[v] < lb_[v]) {
      total += lb_[v] - x_[v];
    } else if (x_[v] > ub_[v]) {
      total += x_[v] - ub_[v];
    }
  }
  return total;
}

void LpSolver::BuildPhase1Costs(std::vector<double>& costs) const {
  costs.assign(total_, 0.0);
  for (int i = 0; i < m_; ++i) {
    int v = basic_[i];
    if (x_[v] < lb_[v] - kFeasTol) {
      costs[v] = 1.0;  // needs to increase
    } else if (x_[v] > ub_[v] + kFeasTol) {
      costs[v] = -1.0;  // needs to decrease
    }
  }
}

LpStatus LpSolver::Iterate(std::span<const double> costs_in, bool phase1,
                           int* iterations_left) {
  std::vector<double>& phase1_costs = phase1_costs_;
  std::vector<double>& y = y_;
  std::vector<double>& w = w_;
  y.resize(m_);
  int degenerate_streak = 0;
  int cancel_poll = 0;
  bool was_bland = false;

  while (true) {
    if ((cancel_poll++ & kCancelPollMask) == 0 &&
        options_.deadline.Expired()) {
      return LpStatus::kCancelled;
    }
    if (*iterations_left <= 0) {
      return LpStatus::kIterationLimit;
    }
    --*iterations_left;

    std::span<const double> costs = costs_in;
    if (phase1) {
      if (TotalInfeasibility() <= kFeasTol * (m_ + 1)) {
        return LpStatus::kOptimal;
      }
      BuildPhase1Costs(phase1_costs);
      costs = phase1_costs;
    }

    // y' = c_B' B^-1 ; skip zero-cost basic rows (most of them in phase 1).
    std::fill(y.begin(), y.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      double cb = costs[basic_[i]];
      if (cb == 0.0) {
        continue;
      }
      const double* row = &binv_[static_cast<size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) {
        y[k] += cb * row[k];
      }
    }

    // Pricing: partial (rotating-section) Dantzig by default, Bland when
    // stalling. Optimality is only ever declared after a scan that covered
    // every variable, so partial pricing changes the pivot sequence but not
    // the answer; Bland's rule keeps its full lowest-index-first scan, which
    // its anti-cycling argument requires.
    const bool bland = degenerate_streak >= options_.bland_pivot_limit;
    if (bland && !was_bland) {
      BlandActivations()->Increment();
    }
    was_bland = bland;
    int enter = -1;
    int enter_dir = 0;
    double best_viol = kCostTol;
    auto price_candidate = [&](int v) {
      if (status_[v] == Status::kBasic) {
        return false;
      }
      if (ub_[v] - lb_[v] <= 0.0) {
        return false;  // fixed variable can never move
      }
      double z = costs[v] - ColumnDot(v, y);
      int dir = 0;
      double viol = 0.0;
      switch (status_[v]) {
        case Status::kAtLower:
          if (z > kCostTol) {
            dir = 1;
            viol = z;
          }
          break;
        case Status::kAtUpper:
          if (z < -kCostTol) {
            dir = -1;
            viol = -z;
          }
          break;
        case Status::kFreeZero:
          if (std::abs(z) > kCostTol) {
            dir = z > 0 ? 1 : -1;
            viol = std::abs(z);
          }
          break;
        case Status::kBasic:
          break;
      }
      if (dir == 0) {
        return false;
      }
      if (bland) {
        enter = v;
        enter_dir = dir;
        return true;
      }
      if (viol > best_viol) {
        best_viol = viol;
        enter = v;
        enter_dir = dir;
      }
      return false;
    };
    if (bland) {
      for (int v = 0; v < total_; ++v) {
        if (price_candidate(v)) {
          break;
        }
      }
    } else {
      const int section =
          std::max(kMinPricingSection, total_ / kPricingSections);
      int window_start = pricing_cursor_ < total_ ? pricing_cursor_ : 0;
      int scanned = 0;
      while (scanned < total_) {
        const int window_end = std::min(window_start + section, total_);
        for (int v = window_start; v < window_end; ++v) {
          price_candidate(v);
        }
        scanned += window_end - window_start;
        if (enter >= 0) {
          // Keep the cursor here: the section that just produced a candidate
          // is the most likely home of the next one.
          pricing_cursor_ = window_start;
          break;
        }
        window_start = window_end >= total_ ? 0 : window_end;
      }
    }
    if (enter < 0) {
      return LpStatus::kOptimal;  // full scan found no improving direction
    }

    ComputeTableauColumn(enter, w);

    // Ratio test. Entering variable moves by t >= 0 in direction enter_dir;
    // basic i changes by -enter_dir * w[i] * t.
    double limit = kInfinity;
    int leave_row = -1;
    bool leave_to_upper = false;
    double best_pivot_mag = 0.0;
    for (int i = 0; i < m_; ++i) {
      double delta = enter_dir * w[i];
      if (std::abs(delta) <= kPivotTol) {
        continue;
      }
      int bvar = basic_[i];
      double xb = x_[bvar];
      double l = lb_[bvar];
      double u = ub_[bvar];
      double ratio;
      bool to_upper;
      if (phase1 && xb < l - kFeasTol) {
        // Infeasible below: blocks only when moving up to its lower bound.
        if (delta < 0.0) {
          ratio = (xb - l) / delta;
          to_upper = false;
        } else {
          continue;
        }
      } else if (phase1 && xb > u + kFeasTol) {
        if (delta > 0.0) {
          ratio = (xb - u) / delta;
          to_upper = true;
        } else {
          continue;
        }
      } else if (delta > 0.0) {
        if (!std::isfinite(l)) {
          continue;
        }
        ratio = (xb - l) / delta;
        to_upper = false;
      } else {
        if (!std::isfinite(u)) {
          continue;
        }
        ratio = (xb - u) / delta;
        to_upper = true;
      }
      ratio = std::max(ratio, 0.0);
      bool better;
      if (bland) {
        better = ratio < limit - 1e-12 ||
                 (leave_row >= 0 && ratio < limit + 1e-12 &&
                  basic_[i] < basic_[leave_row]);
      } else {
        better = ratio < limit - 1e-12 ||
                 (ratio < limit + 1e-12 && std::abs(w[i]) > best_pivot_mag);
      }
      if (better) {
        limit = ratio;
        leave_row = i;
        leave_to_upper = to_upper;
        best_pivot_mag = std::abs(w[i]);
      }
    }

    // The entering variable's own opposite bound can bind first (bound flip).
    double flip_range = ub_[enter] - lb_[enter];
    if (std::isfinite(flip_range) && flip_range <= limit) {
      double t = flip_range;
      for (int i = 0; i < m_; ++i) {
        x_[basic_[i]] -= enter_dir * w[i] * t;
      }
      if (status_[enter] == Status::kAtLower) {
        x_[enter] = ub_[enter];
        status_[enter] = Status::kAtUpper;
      } else {
        x_[enter] = lb_[enter];
        status_[enter] = Status::kAtLower;
      }
      degenerate_streak = t <= kFeasTol ? degenerate_streak + 1 : 0;
      continue;
    }

    if (leave_row < 0) {
      if (phase1) {
        TETRI_LOG(kWarning) << "phase-1 unbounded direction; treating as "
                               "numerically infeasible";
        return LpStatus::kInfeasible;
      }
      return LpStatus::kUnbounded;
    }

    double t = limit;
    for (int i = 0; i < m_; ++i) {
      x_[basic_[i]] -= enter_dir * w[i] * t;
    }
    if (status_[enter] == Status::kAtLower) {
      x_[enter] = lb_[enter] + t;
    } else if (status_[enter] == Status::kAtUpper) {
      x_[enter] = ub_[enter] - t;
    } else {
      x_[enter] = enter_dir * t;
    }

    int leaving = basic_[leave_row];
    status_[leaving] = leave_to_upper ? Status::kAtUpper : Status::kAtLower;
    x_[leaving] = leave_to_upper ? ub_[leaving] : lb_[leaving];
    basic_[leave_row] = enter;
    status_[enter] = Status::kBasic;

    // Update the explicit inverse: one Gauss step on the pivot row.
    double pivot = w[leave_row];
    double* prow = &binv_[static_cast<size_t>(leave_row) * m_];
    double inv_pivot = 1.0 / pivot;
    for (int k = 0; k < m_; ++k) {
      prow[k] *= inv_pivot;
    }
    for (int i = 0; i < m_; ++i) {
      if (i == leave_row) {
        continue;
      }
      double factor = w[i];
      if (factor == 0.0) {
        continue;
      }
      double* row = &binv_[static_cast<size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) {
        row[k] -= factor * prow[k];
      }
    }

    degenerate_streak = t <= kFeasTol ? degenerate_streak + 1 : 0;
    if (++pivots_since_refactor_ >= kRefactorEvery) {
      RefactorizeOrReset();
      RecomputeBasicValues();
    }
  }
}

LpResult LpSolver::Solve() {
  std::vector<double> lower(n_), upper(n_);
  for (int v = 0; v < n_; ++v) {
    lower[v] = model_.lower_bound(v);
    upper[v] = model_.upper_bound(v);
  }
  return Solve(lower, upper, nullptr);
}

LpResult LpSolver::Solve(std::span<const double> lower,
                         std::span<const double> upper) {
  return Solve(lower, upper, nullptr);
}

LpResult LpSolver::Solve(std::span<const double> lower,
                         std::span<const double> upper, const LpBasis* warm) {
  assert(static_cast<int>(lower.size()) == n_ &&
         static_cast<int>(upper.size()) == n_);
  InstallBounds(lower, upper);
  // Reset the pricing cursor so a solve's pivot sequence depends only on its
  // arguments, not on which solves this instance ran before (keeps
  // single-threaded branch-and-bound runs reproducible).
  pricing_cursor_ = 0;

  bool warm_ok = warm != nullptr && InstallWarmBasis(*warm);
  if (!warm_ok) {
    InstallSlackBasis();
  }
  RecomputeBasicValues();

  LpResult result;
  int iterations_left = kMaxIterations;

  if (TotalInfeasibility() > kFeasTol * (m_ + 1)) {
    LpStatus phase1 = Iterate({}, /*phase1=*/true, &iterations_left);
    if (phase1 == LpStatus::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = kMaxIterations;
      return result;
    }
    if (phase1 == LpStatus::kCancelled) {
      // Cancelled while still (possibly) infeasible: report the cancellation
      // rather than misclassifying the interrupted state as infeasible.
      result.status = LpStatus::kCancelled;
      result.iterations = kMaxIterations - iterations_left;
      return result;
    }
    if (TotalInfeasibility() > kFeasTol * (m_ + 1)) {
      result.status = LpStatus::kInfeasible;
      result.iterations = kMaxIterations - iterations_left;
      return result;
    }
  }

  LpStatus phase2 = Iterate(obj_, /*phase1=*/false, &iterations_left);
  result.status = phase2;
  result.iterations = kMaxIterations - iterations_left;
  if (phase2 != LpStatus::kOptimal && phase2 != LpStatus::kIterationLimit) {
    return result;
  }

  result.values.assign(n_, 0.0);
  double objective = 0.0;
  for (int v = 0; v < n_; ++v) {
    double x = x_[v];
    // Snap to bounds within tolerance so callers see clean values.
    if (x < lb_[v]) {
      x = lb_[v];
    } else if (x > ub_[v]) {
      x = ub_[v];
    }
    result.values[v] = x;
    objective += obj_[v] * x;
  }
  result.objective = objective;
  return result;
}

LpBasis LpSolver::BasisSnapshot() const {
  LpBasis snapshot;
  snapshot.basic.assign(basic_.begin(), basic_.end());
  snapshot.status.resize(total_);
  for (int v = 0; v < total_; ++v) {
    snapshot.status[v] = static_cast<uint8_t>(status_[v]);
  }
  return snapshot;
}

}  // namespace tetrisched
