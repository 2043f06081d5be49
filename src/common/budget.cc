#include "src/common/budget.h"

#include <algorithm>

namespace tetrisched {

Deadline Deadline::AfterSeconds(double seconds) {
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> wait(std::max(seconds, 0.0));
  if (!(wait < Clock::time_point::max() - now)) {
    return Deadline();
  }
  return Deadline(now + std::chrono::duration_cast<Clock::duration>(wait));
}

DeadlinePool::DeadlinePool(Deadline end, double total_weight)
    : end_(end), outstanding_weight_(std::max(total_weight, 0.0)) {}

Deadline DeadlinePool::Acquire(double weight, double floor_seconds) {
  if (end_.never()) {
    return end_;
  }
  const Deadline::Clock::time_point now = Deadline::Clock::now();
  const double remaining =
      std::max(std::chrono::duration<double>(end_.at() - now).count(), 0.0);
  const double share = outstanding_weight_ > 0.0
                           ? remaining * (weight / outstanding_weight_)
                           : remaining;
  const auto slice = std::chrono::duration_cast<Deadline::Clock::duration>(
      std::chrono::duration<double>(std::max(floor_seconds, share)));
  // The floor never reaches past the pool's own deadline.
  return Deadline(std::min(end_.at(), now + slice));
}

void DeadlinePool::Release(double weight) {
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
