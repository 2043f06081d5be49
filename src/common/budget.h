// Cycle deadline enforcement primitives (DESIGN.md §13).
//
// Four pieces, deliberately small and dependency-free so every layer from
// the simplex inner loop up to the scheduler can share them:
//   * Deadline       — an absolute wall-clock instant, fixed when it is made
//                      and copied by value into whatever polls it (one clock
//                      read per poll; the default never expires and never
//                      reads the clock, so disabled plumbing is inert).
//   * DeadlinePool   — a weighted pool that slices one Deadline among
//                      claimants that run one after another. Each acquires
//                      a slice of the *remaining* time proportional to its
//                      weight among the still-outstanding claimants, so work
//                      that finishes early implicitly donates its unused
//                      time to the claimants after it (the decomposed
//                      components of one solve).
//   * AimdController — additive-increase / multiplicative-decrease control
//                      of a scalar level in [min_level, 1], driven by a
//                      per-cycle blown/healthy budget signal. Deterministic:
//                      the trajectory is a pure function of the observation
//                      sequence.
//   * CycleBudgetOptions — the scheduler-facing budget
//                      (TetriSchedConfig::budget).

#ifndef TETRISCHED_COMMON_BUDGET_H_
#define TETRISCHED_COMMON_BUDGET_H_

#include <chrono>

namespace tetrisched {

// Absolute steady-clock deadline. Immutable once made, so a solve copies
// the one it arms into every LP and component it runs, and any number of
// hot loops poll Expired() without sharing state. The default value never
// expires and never reads the clock.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;
  explicit Deadline(Clock::time_point at) : at_(at) {}

  // `seconds` from now: <= 0 has already expired; +inf, NaN or a span past
  // the clock's range never expires.
  static Deadline AfterSeconds(double seconds);

  Clock::time_point at() const { return at_; }
  bool never() const { return at_ == Clock::time_point::max(); }
  bool Expired() const { return !never() && Clock::now() >= at_; }

 private:
  Clock::time_point at_ = Clock::time_point::max();
};

// Weighted pool that slices one Deadline among sub-solves run in turn.
// Construct with the shared deadline and the aggregate weight of every
// claimant (e.g. total variable count across components); each claimant
// calls Acquire when it starts and Release when it finishes, before the
// next one starts. Because a claimant's slice is computed from the time
// remaining *at its start* and the weight still outstanding, any time an
// earlier claimant left unused flows to the ones after it. Not thread-safe:
// one solve owns its pool.
class DeadlinePool {
 public:
  DeadlinePool(Deadline end, double total_weight);

  // Deadline for a claimant of `weight`: its proportional share of the
  // remaining time among the outstanding weight, but never less than
  // `floor_seconds` and never past the pool's own deadline.
  Deadline Acquire(double weight, double floor_seconds);
  // Marks `weight` finished; its unused time redistributes implicitly.
  void Release(double weight);

 private:
  const Deadline end_;
  double outstanding_weight_;
};

// AIMD over a level in [kMinLevel, 1]. The scheduler maps the level onto the
// effective plan-ahead window (1 = configured plan_ahead, min = one quantum,
// the NP configuration). The tuning is fixed: tetrischedd runs these values,
// and they are the ones its open-loop benchmark measures (DESIGN.md §13).
class AimdController {
 public:
  static constexpr int kShrinkAfter = 3;   // blown cycles before a shrink
  static constexpr double kShrinkFactor = 0.5;
  static constexpr int kRestoreAfter = 4;  // healthy cycles before a restore
  static constexpr double kRestoreStep = 0.125;
  static constexpr double kMinLevel = 0.0;  // the scheduler floors at NP

  // Feeds one cycle's outcome. Returns -1 when the level shrank this
  // observation, +1 when it restored, 0 when unchanged. Each adaptation
  // resets its streak, so K blown cycles cause K / kShrinkAfter shrinks.
  int Observe(bool blown);

  double level() const { return level_; }
  int blown_streak() const { return blown_streak_; }
  int healthy_streak() const { return healthy_streak_; }

  // Overwrites the full controller state (crash-recovery import).
  void RestoreState(double level, int blown_streak, int healthy_streak);

 private:
  double level_ = 1.0;
  int blown_streak_ = 0;
  int healthy_streak_ = 0;
};

// Scheduler-facing budget knob (TetriSchedConfig::budget, DESIGN.md §13).
struct CycleBudgetOptions {
  // Wall-clock budget for one whole scheduling cycle, in seconds. 0 (the
  // default) disables deadline enforcement and adaptation entirely: no
  // deadline is armed and scheduling is bit-identical to pre-budget
  // behavior. Operationally this is the cycle period (paper: 4 s). A
  // positive budget clamps each solve to what the cycle has left and lets
  // AimdController shrink the plan-ahead window and relax rel_gap under
  // sustained overload.
  double budget_seconds = 0.0;
};

}  // namespace tetrisched

#endif  // TETRISCHED_COMMON_BUDGET_H_
