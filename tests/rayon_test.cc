// Tests for the Rayon admission-control substrate.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/rayon/rayon.h"

namespace tetrisched {
namespace {

RdlRequest MakeRequest(int k, SimDuration dur, SimTime ws, SimTime we) {
  RdlRequest request;
  request.k = k;
  request.duration = dur;
  request.window_start = ws;
  request.window_end = we;
  return request;
}

TEST(RayonTest, AcceptsWithinCapacity) {
  RayonAdmission rayon(10);
  ReservationDecision d = rayon.Submit(MakeRequest(4, 100, 0, 200));
  ASSERT_TRUE(d.accepted);
  EXPECT_EQ(d.interval.start, 0);
  EXPECT_EQ(d.interval.end, 100);
  EXPECT_EQ(rayon.num_accepted(), 1);
}

TEST(RayonTest, RejectsOversizedGang) {
  RayonAdmission rayon(10);
  EXPECT_FALSE(rayon.Submit(MakeRequest(11, 10, 0, 100)).accepted);
  EXPECT_EQ(rayon.num_rejected(), 1);
}

TEST(RayonTest, RejectsWindowTooShort) {
  RayonAdmission rayon(10);
  EXPECT_FALSE(rayon.Submit(MakeRequest(1, 100, 0, 50)).accepted);
}

TEST(RayonTest, PacksSequentiallyWhenContended) {
  RayonAdmission rayon(10);
  // Two 10-node reservations cannot overlap; second must start after first.
  ReservationDecision first = rayon.Submit(MakeRequest(10, 50, 0, 200));
  ReservationDecision second = rayon.Submit(MakeRequest(10, 50, 0, 200));
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(second.accepted);
  EXPECT_EQ(first.interval.start, 0);
  EXPECT_EQ(second.interval.start, 50);
}

TEST(RayonTest, RejectsWhenPlanIsFull) {
  RayonAdmission rayon(10);
  EXPECT_TRUE(rayon.Submit(MakeRequest(10, 100, 0, 100)).accepted);
  EXPECT_FALSE(rayon.Submit(MakeRequest(1, 100, 0, 100)).accepted);
  // But a later window still works.
  EXPECT_TRUE(rayon.Submit(MakeRequest(1, 100, 0, 300)).accepted);
}

TEST(RayonTest, ParallelReservationsShareCapacity) {
  RayonAdmission rayon(10);
  EXPECT_TRUE(rayon.Submit(MakeRequest(5, 100, 0, 100)).accepted);
  EXPECT_TRUE(rayon.Submit(MakeRequest(5, 100, 0, 100)).accepted);
  EXPECT_EQ(rayon.CommittedAt(50), 10);
  EXPECT_EQ(rayon.CommittedAt(150), 0);
}

TEST(RayonTest, FindsGapBetweenReservations) {
  RayonAdmission rayon(10);
  // Occupy [0,50) and [100,150) fully.
  ASSERT_TRUE(rayon.Submit(MakeRequest(10, 50, 0, 50)).accepted);
  ASSERT_TRUE(rayon.Submit(MakeRequest(10, 50, 100, 150)).accepted);
  // A 50-second job fits exactly in the [50,100) hole.
  ReservationDecision d = rayon.Submit(MakeRequest(10, 50, 0, 200));
  ASSERT_TRUE(d.accepted);
  EXPECT_EQ(d.interval.start, 50);
}

TEST(RayonTest, OverestimatedDurationsCauseRejections) {
  // The same workload fits with accurate estimates but overflows the plan
  // when durations are inflated — the root of the paper's over-estimation
  // dynamics (more SLO jobs without reservations).
  RayonAdmission accurate(10);
  RayonAdmission inflated(10);
  int accurate_accepts = 0;
  int inflated_accepts = 0;
  for (int i = 0; i < 10; ++i) {
    if (accurate.Submit(MakeRequest(5, 100, 0, 600)).accepted) {
      ++accurate_accepts;
    }
    if (inflated.Submit(MakeRequest(5, 200, 0, 600)).accepted) {
      ++inflated_accepts;
    }
  }
  EXPECT_GT(accurate_accepts, inflated_accepts);
}

// The candidate-by-candidate earliest fit that RayonAdmission::Submit used
// before its one-pass sweep: every candidate start re-walks the agenda.
// Kept here as the reference the sweep must agree with.
class ReferenceAgenda {
 public:
  explicit ReferenceAgenda(int capacity) : capacity_(capacity) {}

  void Load(const RayonState& state) {
    deltas_ = {state.deltas.begin(), state.deltas.end()};
  }
  std::vector<std::pair<SimTime, int>> Deltas() const {
    return {deltas_.begin(), deltas_.end()};
  }

  ReservationDecision Submit(const RdlRequest& request) {
    ReservationDecision decision;
    if (request.k > capacity_ || request.duration <= 0 ||
        request.window_start + request.duration > request.window_end) {
      return decision;
    }
    SimTime latest_start = request.window_end - request.duration;
    std::vector<SimTime> candidates{request.window_start};
    for (const auto& [time, delta] : deltas_) {
      if (time > request.window_start && time <= latest_start) {
        candidates.push_back(time);
      }
    }
    for (SimTime start : candidates) {
      SimTime end = start + request.duration;
      int committed = 0;
      int peak = 0;
      for (const auto& [time, delta] : deltas_) {
        if (time >= end) {
          break;
        }
        committed += delta;
        if (time >= start) {
          peak = std::max(peak, committed);
        }
      }
      peak = std::max(peak, CommittedAt(start));
      if (peak + request.k <= capacity_) {
        deltas_[start] += request.k;
        deltas_[end] -= request.k;
        decision.accepted = true;
        decision.interval = {start, end};
        return decision;
      }
    }
    return decision;
  }

  void Release(TimeRange interval, int k) {
    deltas_[interval.start] -= k;
    deltas_[interval.end] += k;
    for (SimTime t : {interval.start, interval.end}) {
      auto it = deltas_.find(t);
      if (it != deltas_.end() && it->second == 0) {
        deltas_.erase(it);
      }
    }
  }

 private:
  int CommittedAt(SimTime t) const {
    int committed = 0;
    for (const auto& [time, delta] : deltas_) {
      if (time > t) {
        break;
      }
      committed += delta;
    }
    return committed;
  }

  int capacity_;
  std::map<SimTime, int> deltas_;
};

// Random request streams, with releases of accepted reservations and
// restores into a fresh object mixed in: the one-pass Submit must make the
// reference's decision and pick its interval every time.
TEST(RayonTest, SweepMatchesReferenceOnRandomStreams) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(5300 + seed);
    const int capacity = static_cast<int>(rng.UniformInt(1, 12));
    RayonAdmission rayon(capacity);
    ReferenceAgenda reference(capacity);
    std::vector<std::pair<TimeRange, int>> held;
    int accepted = 0;
    for (int step = 0; step < 300; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const double action = rng.UniformReal(0.0, 1.0);
      if (action < 0.15 && !held.empty()) {
        const size_t pick = rng.UniformInt(0, held.size() - 1);
        rayon.Release(held[pick].first, held[pick].second);
        reference.Release(held[pick].first, held[pick].second);
        held.erase(held.begin() + pick);
      } else if (action < 0.2) {
        RayonAdmission restored(capacity);
        restored.Restore(rayon.ExportState());
        rayon = restored;
        reference.Load(rayon.ExportState());
      } else {
        RdlRequest request;
        request.k = static_cast<int>(rng.UniformInt(0, capacity + 1));
        request.duration = rng.UniformInt(0, 60);
        request.window_start = rng.UniformInt(0, 400);
        request.window_end = request.window_start + rng.UniformInt(0, 200);
        ReservationDecision got = rayon.Submit(request);
        ReservationDecision want = reference.Submit(request);
        ASSERT_EQ(got.accepted, want.accepted) << where;
        if (want.accepted) {
          ++accepted;
          ASSERT_EQ(got.interval.start, want.interval.start) << where;
          ASSERT_EQ(got.interval.end, want.interval.end) << where;
          if (request.k > 0) {
            held.push_back({got.interval, request.k});
          }
        }
      }
      ASSERT_EQ(rayon.ExportState().deltas, reference.Deltas()) << where;
    }
    // The streams must exercise both outcomes, not only one.
    EXPECT_GT(accepted, 0) << "seed " << seed;
    EXPECT_GT(rayon.num_rejected(), 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tetrisched
