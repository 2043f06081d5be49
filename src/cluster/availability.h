// Quantized resource availability over the plan-ahead window.
//
// The scheduler discretizes the plan-ahead horizon into fixed-width slices
// (paper §5: "we discretize time and track integral resource capacity in each
// equivalence set for each discretized time slice"). AvailabilityGrid holds
// avail(partition, slice): full partition capacity minus the holds of already
// running jobs (whose expected completion times come from — possibly
// adjusted — runtime estimates).

#ifndef TETRISCHED_CLUSTER_AVAILABILITY_H_
#define TETRISCHED_CLUSTER_AVAILABILITY_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/time.h"

namespace tetrisched {

// The quantized plan-ahead window: slices [start + i*quantum,
// start + (i+1)*quantum) for i in [0, num_slices).
struct TimeGrid {
  SimTime start = 0;
  SimDuration quantum = 1;
  int num_slices = 1;

  SimTime horizon_end() const { return start + quantum * num_slices; }
  SimTime SliceStart(int slice) const { return start + quantum * slice; }

  // Slice index containing `t` (may be out of [0, num_slices)).
  int SliceOf(SimTime t) const {
    SimTime delta = t - start;
    return static_cast<int>(delta >= 0 ? delta / quantum
                                       : (delta - quantum + 1) / quantum);
  }

  // Slices overlapped by [s, s+dur), clipped to the grid; returns a
  // half-open [first, last) pair (empty if no overlap). Inline: the compiler
  // calls it once per leaf per partition.
  std::pair<int, int> ClippedSliceRange(SimTime s, SimDuration dur) const {
    SimTime end = s + dur;
    if (end <= start || s >= horizon_end() || dur <= 0) {
      return {0, 0};
    }
    SimTime clipped_start = std::max(s, start);
    SimTime clipped_end = std::min(end, horizon_end());
    int first = static_cast<int>((clipped_start - start) / quantum);
    int last = static_cast<int>((clipped_end - start + quantum - 1) / quantum);
    return {first, last};
  }
};

class AvailabilityGrid {
 public:
  AvailabilityGrid(const Cluster& cluster, TimeGrid grid);

  const TimeGrid& grid() const { return grid_; }
  int num_partitions() const { return static_cast<int>(capacity_.size()); }

  int avail(PartitionId partition, int slice) const {
    return capacity_[partition][slice];
  }

  // Subtracts `count` nodes of `partition` over [range.start, range.end),
  // clipped to the grid. Availability may go negative only if the caller
  // over-commits; Reduce itself does not check.
  void Reduce(PartitionId partition, TimeRange range, int count);

  // True iff `count` nodes of `partition` are free over the whole range.
  bool CanFit(PartitionId partition, TimeRange range, int count) const;

  std::string DebugString() const;

 private:
  TimeGrid grid_;
  // capacity_[partition][slice]
  std::vector<std::vector<int>> capacity_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_CLUSTER_AVAILABILITY_H_
