#include "src/rayon/rayon.h"

#include <algorithm>
#include <cassert>

namespace tetrisched {

RayonAdmission::RayonAdmission(int cluster_capacity)
    : capacity_(cluster_capacity) {
  assert(capacity_ > 0);
}

int RayonAdmission::CommittedAt(SimTime t) const {
  int committed = 0;
  for (const auto& [time, delta] : deltas_) {
    if (time > t) {
      break;
    }
    committed += delta;
  }
  return committed;
}

RayonState RayonAdmission::ExportState() const {
  RayonState state;
  state.capacity = capacity_;
  state.num_accepted = num_accepted_;
  state.num_rejected = num_rejected_;
  state.deltas.assign(deltas_.begin(), deltas_.end());
  return state;
}

void RayonAdmission::Restore(const RayonState& state) {
  // capacity_ stays: it is the cluster's, set by the constructor, and an
  // image recovered from an empty journal carries capacity 0.
  num_accepted_ = state.num_accepted;
  num_rejected_ = state.num_rejected;
  deltas_.clear();
  deltas_.insert(state.deltas.begin(), state.deltas.end());
}

void RayonAdmission::Release(TimeRange interval, int k) {
  if (interval.empty() || k <= 0) {
    return;
  }
  deltas_[interval.start] -= k;
  deltas_[interval.end] += k;
  for (SimTime t : {interval.start, interval.end}) {
    auto it = deltas_.find(t);
    if (it != deltas_.end() && it->second == 0) {
      deltas_.erase(it);
    }
  }
}

ReservationDecision RayonAdmission::Submit(const RdlRequest& request) {
  ReservationDecision decision;
  if (request.k > capacity_ || request.duration <= 0 ||
      request.window_start + request.duration > request.window_end) {
    ++num_rejected_;
    return decision;
  }

  // Candidate starts: the window start plus every agenda step point inside
  // the window (capacity only changes there, so earliest-fit needs nothing
  // else).
  SimTime latest_start = request.window_end - request.duration;
  std::vector<SimTime> candidates{request.window_start};
  for (const auto& [time, delta] : deltas_) {
    if (time > request.window_start && time <= latest_start) {
      candidates.push_back(time);
    }
  }

  for (SimTime start : candidates) {
    SimTime end = start + request.duration;
    // Max committed capacity over [start, end).
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
      ++num_accepted_;
      decision.accepted = true;
      decision.interval = {start, end};
      return decision;
    }
  }

  ++num_rejected_;
  return decision;
}

}  // namespace tetrisched
