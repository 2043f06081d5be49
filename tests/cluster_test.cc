// Tests for the cluster model, partitioning, availability grid, and ledger.

#include <gtest/gtest.h>

#include "src/cluster/availability.h"
#include "src/cluster/cluster.h"
#include "src/cluster/ledger.h"

namespace tetrisched {
namespace {

TEST(ClusterTest, UniformClusterShape) {
  Cluster cluster = MakeUniformCluster(8, 4, 0);
  EXPECT_EQ(cluster.num_nodes(), 32);
  EXPECT_EQ(cluster.num_racks(), 8);
  EXPECT_EQ(cluster.num_gpu_nodes(), 0);
  // Homogeneous racks: one partition per rack.
  EXPECT_EQ(cluster.num_partitions(), 8);
}

TEST(ClusterTest, GpuRacksFormDistinctPartitions) {
  Cluster cluster = MakeUniformCluster(4, 4, 2);
  EXPECT_EQ(cluster.num_gpu_nodes(), 8);
  EXPECT_EQ(cluster.num_partitions(), 4);
  PartitionSet gpu = cluster.GpuPartitions();
  EXPECT_EQ(gpu.size(), 2u);
  EXPECT_EQ(cluster.CapacityOf(gpu), 8);
  EXPECT_EQ(cluster.CapacityOf(cluster.AllPartitions()), 16);
}

TEST(ClusterTest, MixedRackSplitsIntoTwoPartitions) {
  // A rack with both GPU and non-GPU nodes must split by signature.
  std::vector<NodeSpec> nodes;
  for (int i = 0; i < 4; ++i) {
    NodeSpec node;
    node.rack = 0;
    node.has_gpu = i < 2;
    nodes.push_back(node);
  }
  Cluster cluster((std::move(nodes)));
  EXPECT_EQ(cluster.num_partitions(), 2);
  EXPECT_EQ(cluster.CapacityOf(cluster.GpuPartitions()), 2);
}

TEST(ClusterTest, RackPartitionsSelector) {
  Cluster cluster = MakeUniformCluster(3, 5, 1);
  for (RackId rack = 0; rack < 3; ++rack) {
    EXPECT_EQ(cluster.CapacityOf(cluster.RackPartitions(rack)), 5);
  }
}

// The cached whole-cluster, GPU and per-rack sets hold exactly the
// partitions with that signature, with their capacities, and a moved-to
// cluster hands out its own copies.
TEST(ClusterTest, CachedSetsMatchPartitionSignatures) {
  std::vector<NodeSpec> nodes;
  for (int i = 0; i < 10; ++i) {
    NodeSpec node;
    node.rack = i % 3;
    node.has_gpu = i % 4 == 0;
    node.attr_tag = i % 5 == 0 ? 7 : 0;
    nodes.push_back(node);
  }
  Cluster source((std::move(nodes)));
  const Cluster cluster = std::move(source);
  PartitionSet all;
  PartitionSet gpu;
  std::vector<PartitionSet> racks(cluster.num_racks());
  for (const Partition& partition : cluster.partitions()) {
    all.push_back(partition.id);
    if (partition.has_gpu) {
      gpu.push_back(partition.id);
    }
    racks[partition.rack].push_back(partition.id);
  }
  EXPECT_EQ(cluster.AllPartitions(), all);
  EXPECT_EQ(cluster.GpuPartitions(), gpu);
  EXPECT_EQ(cluster.CapacityOf(cluster.AllPartitions()), cluster.num_nodes());
  EXPECT_EQ(cluster.CapacityOf(cluster.GpuPartitions()),
            cluster.num_gpu_nodes());
  for (RackId rack = 0; rack < cluster.num_racks(); ++rack) {
    EXPECT_EQ(cluster.RackPartitions(rack), racks[rack]);
    EXPECT_EQ(cluster.RackCapacity(rack),
              cluster.CapacityOf(cluster.RackPartitions(rack)));
  }
}

TEST(ClusterTest, NodePartitionMapping) {
  Cluster cluster = MakeUniformCluster(2, 3, 1);
  for (NodeId node = 0; node < cluster.num_nodes(); ++node) {
    PartitionId p = cluster.partition_of(node);
    const Partition& partition = cluster.partition(p);
    EXPECT_EQ(partition.rack, cluster.node(node).rack);
    EXPECT_EQ(partition.has_gpu, cluster.node(node).has_gpu);
  }
}

TEST(TimeGridTest, SliceMath) {
  TimeGrid grid{.start = 100, .quantum = 10, .num_slices = 5};
  EXPECT_EQ(grid.horizon_end(), 150);
  EXPECT_EQ(grid.SliceOf(100), 0);
  EXPECT_EQ(grid.SliceOf(109), 0);
  EXPECT_EQ(grid.SliceOf(110), 1);
  EXPECT_EQ(grid.SliceOf(99), -1);

  auto [first, last] = grid.ClippedSliceRange(105, 20);  // [105, 125)
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, 3);  // covers slices 0,1,2

  auto full = grid.ClippedSliceRange(0, 1000);
  EXPECT_EQ(full.first, 0);
  EXPECT_EQ(full.second, 5);

  auto none = grid.ClippedSliceRange(200, 10);
  EXPECT_EQ(none.first, none.second);

  auto before = grid.ClippedSliceRange(0, 50);  // ends at grid start
  EXPECT_EQ(before.first, before.second);
}

TEST(AvailabilityGridTest, ReduceAndCanFit) {
  Cluster cluster = MakeUniformCluster(2, 4, 0);
  TimeGrid grid{.start = 0, .quantum = 10, .num_slices = 4};
  AvailabilityGrid avail(cluster, grid);

  PartitionId p0 = cluster.RackPartitions(0)[0];
  EXPECT_EQ(avail.avail(p0, 0), 4);
  EXPECT_TRUE(avail.CanFit(p0, {0, 40}, 4));

  avail.Reduce(p0, {10, 30}, 3);
  EXPECT_EQ(avail.avail(p0, 0), 4);
  EXPECT_EQ(avail.avail(p0, 1), 1);
  EXPECT_EQ(avail.avail(p0, 2), 1);
  EXPECT_EQ(avail.avail(p0, 3), 4);
  EXPECT_TRUE(avail.CanFit(p0, {10, 30}, 1));
  EXPECT_FALSE(avail.CanFit(p0, {10, 30}, 2));
  EXPECT_TRUE(avail.CanFit(p0, {30, 40}, 4));
}

TEST(AvailabilityGridTest, RangesOutsideGridAreIgnored) {
  Cluster cluster = MakeUniformCluster(1, 2, 0);
  TimeGrid grid{.start = 0, .quantum = 5, .num_slices = 2};
  AvailabilityGrid avail(cluster, grid);
  avail.Reduce(0, {100, 200}, 2);  // beyond horizon
  EXPECT_EQ(avail.avail(0, 0), 2);
  EXPECT_EQ(avail.avail(0, 1), 2);
}

TEST(NodeLedgerTest, AcquireRelease) {
  Cluster cluster = MakeUniformCluster(2, 3, 1);
  NodeLedger ledger(cluster);
  EXPECT_EQ(ledger.total_free(), 6);

  PartitionId gpu = cluster.GpuPartitions()[0];
  std::vector<NodeId> got = ledger.Acquire(gpu, 2);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(ledger.free_in_partition(gpu), 1);
  EXPECT_EQ(ledger.total_free(), 4);
  for (NodeId node : got) {
    EXPECT_FALSE(ledger.is_free(node));
    EXPECT_TRUE(cluster.node(node).has_gpu);
  }

  ledger.Release(got);
  EXPECT_EQ(ledger.total_free(), 6);
  EXPECT_EQ(ledger.free_in_partition(gpu), 3);
}

TEST(NodeLedgerTest, AcquireAnywhereSpansPartitions) {
  Cluster cluster = MakeUniformCluster(2, 2, 0);
  NodeLedger ledger(cluster);
  std::vector<NodeId> got = ledger.AcquireAnywhere(3);
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(ledger.total_free(), 1);
}

TEST(NodeLedgerTest, DeterministicOrder) {
  Cluster cluster = MakeUniformCluster(1, 4, 0);
  NodeLedger a(cluster);
  NodeLedger b(cluster);
  EXPECT_EQ(a.Acquire(0, 2), b.Acquire(0, 2));
}

}  // namespace
}  // namespace tetrisched
