// Cluster resource model: nodes, racks, static attributes, and the
// equivalence-set partitioning that underpins STRL and the MILP compiler.
//
// TetriSched's key complexity reduction (paper §4.2, §5, TR Appendix A) is to
// group machines that are interchangeable from every job's point of view into
// *partitions* — maximal sets of nodes with an identical attribute signature
// (same rack, same static attributes). STRL leaves then name partition sets
// and counts instead of enumerating machine k-tuples, and the MILP tracks one
// integer variable per (leaf, partition) instead of one per machine.

#ifndef TETRISCHED_CLUSTER_CLUSTER_H_
#define TETRISCHED_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tetrisched {

using NodeId = int32_t;
using PartitionId = int32_t;
using RackId = int32_t;

// Static description of one machine. `attr_tag` is an opaque user-defined
// attribute class (dataset replica group, kernel version, ...) that
// participates in the partition signature: nodes with different tags are
// never considered interchangeable.
struct NodeSpec {
  NodeId id = -1;
  RackId rack = 0;
  bool has_gpu = false;
  int attr_tag = 0;
};

// A maximal set of nodes with an identical attribute signature.
struct Partition {
  PartitionId id = -1;
  RackId rack = 0;
  bool has_gpu = false;
  int attr_tag = 0;
  std::vector<NodeId> nodes;

  int capacity() const { return static_cast<int>(nodes.size()); }
};

// A set of partitions a STRL leaf may draw from (an equivalence set).
using PartitionSet = std::vector<PartitionId>;

// Immutable cluster topology plus its partitioning.
class Cluster {
 public:
  explicit Cluster(std::vector<NodeSpec> nodes);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  int num_racks() const { return num_racks_; }
  int num_gpu_nodes() const { return num_gpu_nodes_; }

  const NodeSpec& node(NodeId id) const { return nodes_[id]; }
  const Partition& partition(PartitionId id) const { return partitions_[id]; }
  const std::vector<Partition>& partitions() const { return partitions_; }
  PartitionId partition_of(NodeId id) const { return node_partition_[id]; }

  // Equivalence-set helpers used by the STRL generator. The whole-cluster,
  // GPU and per-rack sets are built with the cluster and handed out by
  // reference, so they live as long as the cluster does.
  const PartitionSet& AllPartitions() const { return all_; }
  const PartitionSet& GpuPartitions() const { return gpu_; }
  const PartitionSet& RackPartitions(RackId rack) const {
    return racks_[rack];
  }
  PartitionSet TaggedPartitions(int attr_tag) const;

  // Node count of rack `rack` (CapacityOf(RackPartitions(rack))).
  int RackCapacity(RackId rack) const { return rack_capacity_[rack]; }

  // Total node count across a partition set.
  int CapacityOf(const PartitionSet& set) const;

  std::string DebugString() const;

 private:
  std::vector<NodeSpec> nodes_;
  std::vector<Partition> partitions_;
  std::vector<PartitionId> node_partition_;
  int num_racks_ = 0;
  int num_gpu_nodes_ = 0;
  PartitionSet all_;
  PartitionSet gpu_;
  std::vector<PartitionSet> racks_;  // indexed by rack id
  std::vector<int> rack_capacity_;   // indexed by rack id
};

// Convenience builder: `racks` racks of `nodes_per_rack` nodes each; the
// first `gpu_racks` racks are GPU-equipped. Mirrors the paper's testbeds
// (8 equal racks; rack-granular GPU labeling as in Fig 1).
Cluster MakeUniformCluster(int racks, int nodes_per_rack, int gpu_racks = 0);

}  // namespace tetrisched

#endif  // TETRISCHED_CLUSTER_CLUSTER_H_
