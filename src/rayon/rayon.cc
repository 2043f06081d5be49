#include "src/rayon/rayon.h"

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

  // Earliest fit in one forward pass. Capacity only changes at agenda step
  // points, so the candidate starts are the window start and the step points
  // inside the window. `level` is the committed capacity just after the step
  // last applied. When a step inside [start, start + duration) leaves too
  // little room, every candidate up to that step also covers it, so the next
  // candidate is the step point after it.
  const int max_level = capacity_ - request.k;  // most the request fits beside
  const SimTime latest_start = request.window_end - request.duration;
  auto it = deltas_.begin();
  int level = 0;
  for (; it != deltas_.end() && it->first <= request.window_start; ++it) {
    level += it->second;
  }
  SimTime start = request.window_start;
  while (true) {
    if (level > max_level) {
      if (it == deltas_.end() || it->first > latest_start) {
        break;
      }
      start = it->first;
    } else if (it == deltas_.end() ||
               it->first >= start + request.duration) {
      const SimTime end = start + request.duration;
      deltas_[start] += request.k;
      deltas_[end] -= request.k;
      ++num_accepted_;
      decision.accepted = true;
      decision.interval = {start, end};
      return decision;
    }
    level += it->second;
    ++it;
  }

  ++num_rejected_;
  return decision;
}

}  // namespace tetrisched
