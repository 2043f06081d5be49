#include "src/cluster/availability.h"

#include <sstream>

namespace tetrisched {

AvailabilityGrid::AvailabilityGrid(const Cluster& cluster, TimeGrid grid)
    : grid_(grid) {
  capacity_.resize(cluster.num_partitions());
  for (const Partition& partition : cluster.partitions()) {
    capacity_[partition.id].assign(grid_.num_slices, partition.capacity());
  }
}

void AvailabilityGrid::Reduce(PartitionId partition, TimeRange range,
                              int count) {
  auto [first, last] = grid_.ClippedSliceRange(range.start, range.length());
  for (int slice = first; slice < last; ++slice) {
    capacity_[partition][slice] -= count;
  }
}

bool AvailabilityGrid::CanFit(PartitionId partition, TimeRange range,
                              int count) const {
  auto [first, last] = grid_.ClippedSliceRange(range.start, range.length());
  for (int slice = first; slice < last; ++slice) {
    if (capacity_[partition][slice] < count) {
      return false;
    }
  }
  return true;
}

std::string AvailabilityGrid::DebugString() const {
  std::ostringstream out;
  for (size_t p = 0; p < capacity_.size(); ++p) {
    out << "partition " << p << ":";
    for (int c : capacity_[p]) {
      out << " " << c;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace tetrisched
