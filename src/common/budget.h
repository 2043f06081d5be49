// Cycle deadline enforcement primitives (DESIGN.md §13).
//
// Four pieces, deliberately small and dependency-free so every layer from
// the simplex inner loop up to the scheduler can share them:
//   * CancelToken    — an armable absolute wall-clock deadline, polled
//                      cooperatively (one relaxed atomic load + one clock
//                      read when armed; an unarmed token never touches the
//                      clock, so disabled plumbing is inert).
//   * DeadlinePool   — a weighted pool over one shared deadline. Concurrent
//                      claimants acquire a slice of the *remaining*
//                      wall-clock proportional to their weight among the
//                      still-outstanding claimants, so work that finishes
//                      early implicitly donates its unused time to whatever
//                      is still running (replaces fixed-share apportionment
//                      in the component decomposition).
//   * AimdController — additive-increase / multiplicative-decrease control
//                      of a scalar level in [min_level, 1], driven by a
//                      per-cycle blown/healthy budget signal. Deterministic:
//                      the trajectory is a pure function of the observation
//                      sequence.
//   * CycleBudgetOptions — the scheduler-facing budget
//                      (TetriSchedConfig::budget).

#ifndef TETRISCHED_COMMON_BUDGET_H_
#define TETRISCHED_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace tetrisched {

// Shared wall-clock deadline. One controller arms it; any number of workers
// poll Expired() from hot loops. Passed by pointer (not copyable); nullptr
// and unarmed both mean "no deadline".
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Arms the deadline `seconds` from now (<= 0 expires immediately).
  void ArmAfterSeconds(double seconds);
  // Arms at an absolute steady-clock nanosecond stamp (see NowNanos), used
  // to compose tokens: earliest deadline wins.
  void ArmAtNanos(int64_t deadline_ns);
  // Expires the token immediately.
  void Cancel();
  // Returns to the unarmed state (Expired() constant false, no clock reads).
  void Disarm();

  bool armed() const {
    return deadline_ns_.load(std::memory_order_relaxed) != kUnarmed;
  }
  // True once the deadline passed. Unarmed tokens never read the clock.
  bool Expired() const {
    int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == kUnarmed) {
      return false;
    }
    return NowNanos() >= deadline;
  }
  // Seconds until expiry (negative once expired); +infinity when unarmed.
  double RemainingSeconds() const;
  // Absolute deadline stamp; kUnarmed sentinel when unarmed.
  int64_t deadline_nanos() const {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  static int64_t NowNanos();
  static constexpr int64_t kUnarmed = INT64_MAX;

 private:
  std::atomic<int64_t> deadline_ns_{kUnarmed};
};

// Weighted wall-clock pool for concurrent sub-solves sharing one deadline.
// Construct with the total budget and the aggregate weight of every claimant
// (e.g. total variable count across components); each claimant calls
// AcquireSeconds when it starts and Release when it finishes. Because a
// claimant's slice is computed from the wall-clock remaining *at its start*
// and the weight still outstanding, any time an earlier claimant left unused
// flows to the ones after it.
class DeadlinePool {
 public:
  DeadlinePool(double total_seconds, double total_weight);

  // Slice for a claimant of `weight`: its proportional share of the
  // remaining wall-clock among the outstanding weight, capped at the
  // remaining wall-clock, but never below `floor_seconds` (a zero budget
  // would read as "no solve attempt" downstream).
  double AcquireSeconds(double weight, double floor_seconds);
  // Marks `weight` finished; its unused time redistributes implicitly.
  void Release(double weight);

 private:
  std::mutex mu_;
  std::chrono::steady_clock::time_point end_;
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
