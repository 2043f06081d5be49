#include "src/cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <tuple>
#include <sstream>

namespace tetrisched {

Cluster::Cluster(std::vector<NodeSpec> nodes) : nodes_(std::move(nodes)) {
  // Normalize ids to positions.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].id = static_cast<NodeId>(i);
  }
  node_partition_.assign(nodes_.size(), -1);

  // Group nodes by attribute signature (rack, gpu, tag) into partitions.
  std::map<std::tuple<RackId, bool, int>, PartitionId> signature_to_partition;
  for (const NodeSpec& node : nodes_) {
    auto signature = std::make_tuple(node.rack, node.has_gpu, node.attr_tag);
    auto [it, inserted] = signature_to_partition.try_emplace(
        signature, static_cast<PartitionId>(partitions_.size()));
    if (inserted) {
      Partition partition;
      partition.id = it->second;
      partition.rack = node.rack;
      partition.has_gpu = node.has_gpu;
      partition.attr_tag = node.attr_tag;
      partitions_.push_back(std::move(partition));
    }
    partitions_[it->second].nodes.push_back(node.id);
    node_partition_[node.id] = it->second;
    num_racks_ = std::max(num_racks_, node.rack + 1);
    if (node.has_gpu) {
      ++num_gpu_nodes_;
    }
  }

  racks_.resize(num_racks_);
  rack_capacity_.assign(num_racks_, 0);
  for (const Partition& partition : partitions_) {
    all_.push_back(partition.id);
    if (partition.has_gpu) {
      gpu_.push_back(partition.id);
    }
    racks_[partition.rack].push_back(partition.id);
    rack_capacity_[partition.rack] += partition.capacity();
  }
}

PartitionSet Cluster::TaggedPartitions(int attr_tag) const {
  PartitionSet set;
  for (const Partition& partition : partitions_) {
    if (partition.attr_tag == attr_tag) {
      set.push_back(partition.id);
    }
  }
  return set;
}

int Cluster::CapacityOf(const PartitionSet& set) const {
  int total = 0;
  for (PartitionId id : set) {
    total += partitions_[id].capacity();
  }
  return total;
}

std::string Cluster::DebugString() const {
  std::ostringstream out;
  out << "cluster: " << num_nodes() << " nodes, " << num_racks_ << " racks, "
      << num_gpu_nodes_ << " gpu nodes, " << partitions_.size()
      << " partitions\n";
  for (const Partition& partition : partitions_) {
    out << "  partition " << partition.id << ": rack " << partition.rack
        << (partition.has_gpu ? " [gpu]" : "") << " x"
        << partition.capacity() << "\n";
  }
  return out.str();
}

Cluster MakeUniformCluster(int racks, int nodes_per_rack, int gpu_racks) {
  assert(racks > 0 && nodes_per_rack > 0 && gpu_racks <= racks);
  std::vector<NodeSpec> nodes;
  nodes.reserve(static_cast<size_t>(racks) * nodes_per_rack);
  for (int rack = 0; rack < racks; ++rack) {
    for (int i = 0; i < nodes_per_rack; ++i) {
      NodeSpec node;
      node.rack = rack;
      node.has_gpu = rack < gpu_racks;
      nodes.push_back(node);
    }
  }
  return Cluster(std::move(nodes));
}

}  // namespace tetrisched
