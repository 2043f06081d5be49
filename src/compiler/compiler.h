// STRL -> MILP compilation (paper §5, Algorithm 1).
//
// The compiler walks a STRL expression tree and emits:
//   * one binary indicator variable per choice-carrying subexpression,
//   * one integer "partition" variable per (leaf, partition) pair tracking
//     how many nodes the leaf draws from that equivalence-set partition,
//   * demand constraints (each chosen nCk leaf receives exactly k nodes),
//   * choice constraints (MAX picks at most one child, SUM any subset),
//   * supply constraints (per partition per time slice, usage <= available).
//
// Two reductions keep the model small, mirroring the paper's optimizations:
// leaves whose equivalence set reduces to a single usable partition skip
// their partition variable (P = k*I), and partitions with zero availability
// across the leaf's interval are dropped from the leaf entirely.
//
// Variables and rows carry fixed short labels ("P", "cull", "demand",
// "ldemand", "supply", ...) rather than per-tag names: only
// MilpModel::DebugString reads them, and every solve layer copies them.
//
// The CompiledStrl result owns the MilpModel plus the bookkeeping needed to
// translate a solver assignment back into space-time allocations, and to
// translate the previous cycle's schedule into a warm-start vector.

#ifndef TETRISCHED_COMPILER_COMPILER_H_
#define TETRISCHED_COMPILER_COMPILER_H_

#include <map>
#include <span>
#include <vector>

#include "src/cluster/availability.h"
#include "src/solver/model.h"
#include "src/strl/strl.h"

namespace tetrisched {

// One (partition, slice) capacity row of the compiled model, with enough
// geometry to relate it back to job alternatives. Decision provenance uses
// these to explain rejected jobs: a row whose LHS activity reaches its RHS
// in the incumbent is *binding* — the resource was saturated there.
struct SupplyRowRef {
  ConstraintId row = -1;
  PartitionId partition = -1;
  int slice = 0;
  SimTime slice_start = 0;
  double rhs = 0.0;       // available capacity
  double activity = 0.0;  // LHS value under the queried assignment
};

// One chosen leaf in a solved schedule.
struct StrlAllocation {
  LeafTag tag = kNoTag;
  SimTime start = 0;
  SimDuration duration = 0;
  std::map<PartitionId, int> counts;  // partition -> nodes granted
  double value = 0.0;                 // leaf value

  int total_nodes() const {
    int total = 0;
    for (const auto& [partition, count] : counts) {
      total += count;
    }
    return total;
  }
};

class CompiledStrl {
 public:
  const MilpModel& model() const { return model_; }
  MilpModel& mutable_model() { return model_; }

  int num_leaves() const { return static_cast<int>(leaves_.size()); }

  // Model variables owned exclusively by leaf `leaf` (its choice indicator
  // plus any per-partition count variables). With the solver's decomposition
  // layer (solver/decompose.h), a component's jobs are recovered by mapping
  // each leaf's variables to their component id.
  std::vector<VarId> LeafVars(int leaf) const;

  LeafTag leaf_tag(int leaf) const { return leaves_[leaf].tag; }

  // Maps a solver assignment back to the chosen space-time allocations.
  std::vector<StrlAllocation> ExtractAllocations(
      std::span<const double> values) const;

  // Builds a full warm-start assignment that grants the given leaves.
  // Returns an empty vector when a tag is unknown. The result is a *hint*:
  // the MILP solver independently verifies feasibility and silently drops
  // infeasible warm starts.
  std::vector<double> BuildWarmStart(const LeafGrants& grants) const;

  // Every supply row of the model (activity fields left 0).
  const std::vector<SupplyRowRef>& supply_rows() const { return supply_rows_; }

  // Supply rows saturated under `values`: activity >= rhs - tol. `values`
  // must be a full assignment (e.g. MilpResult::values).
  std::vector<SupplyRowRef> BindingSupplyRows(std::span<const double> values,
                                              double tol = 1e-6) const;

  // Subset of `rows` that constrain leaf `tag`: rows whose partition the
  // leaf may draw from and whose slice overlaps the leaf's interval.
  std::vector<SupplyRowRef> RowsTouchingLeaf(
      LeafTag tag, const std::vector<SupplyRowRef>& rows) const;

  // True when the leaf was culled at compile time (no partition had any
  // headroom over its interval), i.e. the option was capacity-blocked
  // before the solver ever saw it.
  bool LeafCulledAtCompile(LeafTag tag) const;

  // True when the model has leaves and every one was culled at compile
  // time. Each leaf indicator is then pinned to 0, so no solve can choose an
  // allocation, and the optimum is the empty plan.
  bool AllLeavesCulled() const;

 private:
  friend class StrlCompiler;
  friend struct StrlCompileAccess;  // implementation backdoor (compiler.cc)

  struct LeafInfo {
    LeafTag tag = kNoTag;
    SimTime start = 0;
    SimDuration duration = 0;
    int k = 0;
    double value = 0.0;
    bool linear = false;  // LnCk
    VarId indicator = -1;
    // Parallel arrays: partition id and its P variable (-1 when the leaf
    // collapsed to a single partition and P == k * indicator).
    std::vector<PartitionId> partitions;
    std::vector<VarId> partition_vars;
    // Indicators of enclosing MAX/SUM nodes (root first) that must be 1 for
    // this leaf to be chosen; used for warm starts.
    std::vector<VarId> ancestor_indicators;
  };

  MilpModel model_;
  std::vector<LeafInfo> leaves_;
  std::map<LeafTag, int> tag_to_leaf_;
  std::vector<SupplyRowRef> supply_rows_;
  TimeGrid grid_;  // copy of the compile-time grid, for row geometry
  VarId root_indicator_ = -1;
};

// Compile's cull test for one leaf, nCk(partitions, k, start, duration) or
// LnCk when `linear`: true when the partitions can together supply it over
// its window clipped to the grid (k nodes for nCk, one for LnCk). Compile
// pins the indicator of every leaf that fails it to 0
// (CompiledStrl::LeafCulledAtCompile); StrlGenerator::Probe applies it to
// options it has not built.
bool LeafFits(const AvailabilityGrid& availability,
              const PartitionSet& partitions, int k, SimTime start,
              SimDuration duration, bool linear = false);

class StrlCompiler {
 public:
  // `availability` provides both the time grid and per-(partition, slice)
  // free capacity; it must outlive Compile().
  explicit StrlCompiler(const AvailabilityGrid& availability);

  CompiledStrl Compile(const StrlExpr& root);

 private:
  const AvailabilityGrid& availability_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_COMPILER_COMPILER_H_
