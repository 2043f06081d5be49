#include "src/common/budget.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tetrisched {

int64_t CancelToken::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CancelToken::ArmAfterSeconds(double seconds) {
  if (!std::isfinite(seconds)) {
    Disarm();
    return;
  }
  ArmAtNanos(NowNanos() + static_cast<int64_t>(seconds * 1e9));
}

void CancelToken::ArmAtNanos(int64_t deadline_ns) {
  deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
}

void CancelToken::Cancel() {
  deadline_ns_.store(INT64_MIN, std::memory_order_relaxed);
}

void CancelToken::Disarm() {
  deadline_ns_.store(kUnarmed, std::memory_order_relaxed);
}

double CancelToken::RemainingSeconds() const {
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline == kUnarmed) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(deadline - NowNanos()) * 1e-9;
}

DeadlinePool::DeadlinePool(double total_seconds, double total_weight)
    : end_(std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(std::max(total_seconds, 0.0)))),
      outstanding_weight_(std::max(total_weight, 0.0)) {}

double DeadlinePool::AcquireSeconds(double weight, double floor_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  double remaining =
      std::chrono::duration<double>(end_ - std::chrono::steady_clock::now())
          .count();
  remaining = std::max(remaining, 0.0);
  double share = outstanding_weight_ > 0.0
                     ? remaining * (weight / outstanding_weight_)
                     : remaining;
  return std::max(floor_seconds, std::min(share, remaining));
}

void DeadlinePool::Release(double weight) {
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_weight_ = std::max(outstanding_weight_ - weight, 0.0);
}

int AimdController::Observe(bool blown) {
  if (blown) {
    ++blown_streak_;
    healthy_streak_ = 0;
    if (blown_streak_ >= kShrinkAfter && level_ > kMinLevel) {
      level_ = std::max(kMinLevel, level_ * kShrinkFactor);
      blown_streak_ = 0;
      return -1;
    }
    return 0;
  }
  ++healthy_streak_;
  blown_streak_ = 0;
  if (healthy_streak_ >= kRestoreAfter && level_ < 1.0) {
    level_ = std::min(1.0, level_ + kRestoreStep);
    healthy_streak_ = 0;
    return 1;
  }
  return 0;
}

void AimdController::RestoreState(double level, int blown_streak,
                                  int healthy_streak) {
  level_ = std::clamp(level, kMinLevel, 1.0);
  blown_streak_ = std::max(blown_streak, 0);
  healthy_streak_ = std::max(healthy_streak, 0);
}

}  // namespace tetrisched
