// The one outcome of a MILP solve (MilpResult::solve_status).
//
// It answers the question the scheduler actually cares about: did the
// solver hand back a plan worth committing, and if not, why did it stop?
// In particular kNoIncumbent makes the former implicit "empty plan means
// timeout" convention explicit, so the scheduler can drop to its greedy
// degradation path instead of silently scheduling nothing for a cycle.
// kInfeasible and kUnbounded are proofs about the model and come with no
// assignment; the scheduler records such a solve as kNoIncumbent, so
// CycleStats never holds them.
//
// The first five values are ordered best-to-worst so a cycle that runs
// several solves (the per-job greedy path) can keep the worst outcome with
// a max().

#ifndef TETRISCHED_SOLVER_SOLVE_STATUS_H_
#define TETRISCHED_SOLVER_SOLVE_STATUS_H_

#include <algorithm>

namespace tetrisched {

enum class SolveStatus {
  kOptimal = 0,      // proven optimal
  kGapMet = 1,       // feasible within the requested relative gap
  kTimeLimit = 2,    // real incumbent, but time/node budget expired first
  kStall = 3,        // real incumbent, search aborted on the stall limit
  kNoIncumbent = 4,  // budget exhausted with no usable incumbent (at most
                     // the trivial all-zero plan) — degrade, don't trust
  kInfeasible = 5,   // proven: no feasible assignment exists
  kUnbounded = 6,    // the relaxation (or a free variable) is unbounded
};

inline const char* ToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kGapMet:
      return "gap-met";
    case SolveStatus::kTimeLimit:
      return "time-limit";
    case SolveStatus::kStall:
      return "stall";
    case SolveStatus::kNoIncumbent:
      return "no-incumbent";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
  }
  return "?";
}

// Worse-of for aggregating several solves into one per-cycle status.
inline SolveStatus WorstStatus(SolveStatus a, SolveStatus b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_SOLVE_STATUS_H_
