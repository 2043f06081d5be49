// Simplified Rayon reservation system (Curino et al., SoCC'14; paper §2.1).
//
// Rayon is the admission-control frontend TetriSched runs in tandem with:
// SLO jobs submit RDL requests — Window(s, f, Atom(k, gang, dur)) — and Rayon
// either *accepts* (guaranteeing k nodes for dur somewhere inside the window,
// never overcommitting aggregate capacity) or *rejects* them. TetriSched
// consumes only the outputs: the accept/reject signal, the deadline, and the
// runtime estimate. The baseline CapacityScheduler additionally enforces the
// concrete reservation intervals chosen here.
//
// Admission uses a stepwise capacity agenda and earliest-fit placement of the
// requested (k x dur) block inside [window_start, window_end].

#ifndef TETRISCHED_RAYON_RAYON_H_
#define TETRISCHED_RAYON_RAYON_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/time.h"

namespace tetrisched {

// RDL: Window(s, f, Atom(b, k, gang, dur)) — container size b is implicit
// (one node per container in this repo's resource model).
struct RdlRequest {
  int64_t requester = -1;   // job id
  int k = 1;                // gang size (simultaneous nodes)
  SimDuration duration = 0; // estimated runtime
  SimTime window_start = 0; // earliest start (submission time)
  SimTime window_end = 0;   // deadline (latest completion)
};

struct ReservationDecision {
  bool accepted = false;
  TimeRange interval{0, 0};  // the guaranteed [start, start+duration) slot
};

// Complete serializable image of a RayonAdmission: the capacity, the
// accept/reject counters, and the stepwise agenda. Exported for snapshots
// and rebuilt on crash recovery (DESIGN.md §11); replaying journaled
// admissions/releases on top of an exported state must land exactly where
// the live object would, so the delta arithmetic in ExportState/Restore
// mirrors Submit/Release bit for bit. The capacity is informational:
// Restore keeps the restoring object's own (the cluster's) capacity.
struct RayonState {
  int capacity = 0;
  int num_accepted = 0;
  int num_rejected = 0;
  // (time, capacity delta) agenda steps, ascending by time.
  std::vector<std::pair<SimTime, int>> deltas;

  bool operator==(const RayonState& other) const = default;
};

class RayonAdmission {
 public:
  explicit RayonAdmission(int cluster_capacity);

  // Earliest-fit admission: finds the first t in
  // [window_start, window_end - duration] where k nodes are free across
  // [t, t + duration) given all previously accepted reservations; commits
  // and returns the interval, or rejects.
  ReservationDecision Submit(const RdlRequest& request);

  // Committed capacity at time t (sum of accepted reservations covering t).
  int CommittedAt(SimTime t) const;

  // Returns a previously accepted reservation's capacity to the agenda
  // (failure-path shrink-or-drop re-admission: release the dead gang's
  // slot, then Submit the shrunk request). `interval`/`k` must match an
  // accepted Submit. num_accepted() stays a lifetime counter and is not
  // decremented.
  void Release(TimeRange interval, int k);

  // Snapshot/recovery support: ExportState captures the full agenda;
  // Restore overwrites this object's counters and agenda with a previously
  // exported (or journal-replayed) state, keeping its capacity.
  // Restore(ExportState()) is an exact no-op.
  RayonState ExportState() const;
  void Restore(const RayonState& state);

  int capacity() const { return capacity_; }
  int num_accepted() const { return num_accepted_; }
  int num_rejected() const { return num_rejected_; }

 private:
  int capacity_;
  int num_accepted_ = 0;
  int num_rejected_ = 0;
  // Stepwise committed-capacity agenda: time -> capacity delta.
  std::map<SimTime, int> deltas_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_RAYON_RAYON_H_
