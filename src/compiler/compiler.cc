#include "src/compiler/compiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tetrisched {

// Implementation backdoor into CompiledStrl's private state; keeps the
// recursive generator out of the public header.
struct StrlCompileAccess {
  using LeafInfo = CompiledStrl::LeafInfo;
  static MilpModel& model(CompiledStrl& c) { return c.model_; }
  static std::vector<CompiledStrl::LeafInfo>& leaves(CompiledStrl& c) {
    return c.leaves_;
  }
  static std::map<LeafTag, int>& tags(CompiledStrl& c) {
    return c.tag_to_leaf_;
  }
  static std::vector<SupplyRowRef>& supply_rows(CompiledStrl& c) {
    return c.supply_rows_;
  }
  static TimeGrid& grid(CompiledStrl& c) { return c.grid_; }
  static VarId& root(CompiledStrl& c) { return c.root_indicator_; }
};

namespace {

// Recursive generation context (Algorithm 1's globals).
struct GenContext {
  const AvailabilityGrid& availability;
  CompiledStrl* out;
  // LHS terms of the supply constraints, one bucket per (partition, slice)
  // cell at index partition * num_slices + slice. Sized on first use, so a
  // model whose every leaf was culled never allocates it.
  std::vector<std::vector<LinTerm>> used;
  std::vector<VarId> indicator_chain;  // enclosing MAX/SUM indicators
  // GenLeaf's (partition, headroom) list, kept to reuse its allocation.
  std::vector<std::pair<PartitionId, int>> usable;
};

// Tightest usable upper bound for a leaf's draw from one partition: the
// minimum availability across the leaf's active slices (and never above k).
int PartitionHeadroom(const AvailabilityGrid& availability,
                      PartitionId partition, SimTime start, SimDuration dur,
                      int k) {
  auto [first, last] = availability.grid().ClippedSliceRange(start, dur);
  int headroom = k;
  for (int slice = first; slice < last && headroom > 0; ++slice) {
    headroom =
        std::min(headroom, std::max(0, availability.avail(partition, slice)));
  }
  return headroom;
}

// The cull predicate, shared by GenLeaf and StrlCompiler::AnyLeafFits: calls
// `on_usable(partition, headroom)` for each partition of `leaf` that can
// contribute at least one node over its clipped window, and returns whether
// their summed headroom satisfies the leaf (k nodes for nCk, one for LnCk).
// A leaf for which it returns false is culled.
template <typename OnUsable>
bool LeafFits(const AvailabilityGrid& availability, const StrlExpr& leaf,
              OnUsable&& on_usable) {
  int total_headroom = 0;
  for (PartitionId partition : leaf.partitions) {
    int headroom = PartitionHeadroom(availability, partition, leaf.start,
                                     leaf.duration, leaf.k);
    if (headroom > 0) {
      on_usable(partition, headroom);
      total_headroom += headroom;
    }
  }
  return total_headroom > 0 &&
         total_headroom >= (leaf.kind == StrlKind::kLnCk ? 1 : leaf.k);
}

bool AnyFits(const AvailabilityGrid& availability, const StrlExpr& expr) {
  if (expr.IsLeaf()) {
    return LeafFits(availability, expr, [](PartitionId, int) {});
  }
  return std::any_of(
      expr.children.begin(), expr.children.end(),
      [&](const StrlExpr& child) { return AnyFits(availability, child); });
}

void TrackUsage(GenContext& ctx, PartitionId partition, SimTime start,
                SimDuration dur, VarId var, double coeff) {
  const TimeGrid& grid = ctx.availability.grid();
  auto [first, last] = grid.ClippedSliceRange(start, dur);
  if (first >= last) {
    return;
  }
  if (ctx.used.empty()) {
    ctx.used.resize(static_cast<size_t>(ctx.availability.num_partitions()) *
                    grid.num_slices);
  }
  std::vector<LinTerm>* cells =
      &ctx.used[static_cast<size_t>(partition) * grid.num_slices];
  for (int slice = first; slice < last; ++slice) {
    cells[slice].push_back({var, coeff});
  }
}

// gen(expr, I): emits variables/constraints for `expr` under indicator `I`
// and returns the objective terms contributed by the subtree.
std::vector<LinTerm> Gen(GenContext& ctx, const StrlExpr& expr, VarId I);

std::vector<LinTerm> GenLeaf(GenContext& ctx, const StrlExpr& expr, VarId I) {
  MilpModel& model = StrlCompileAccess::model(*ctx.out);
  StrlCompileAccess::LeafInfo info;
  info.tag = expr.tag;
  info.start = expr.start;
  info.duration = expr.duration;
  info.k = expr.k;
  info.value = expr.value;
  info.linear = expr.kind == StrlKind::kLnCk;
  info.indicator = I;
  info.ancestor_indicators = ctx.indicator_chain;

  // Keep only partitions that can contribute at least one node.
  std::vector<std::pair<PartitionId, int>>& usable = ctx.usable;
  usable.clear();
  const bool fits = LeafFits(ctx.availability, expr,
                             [&](PartitionId partition, int headroom) {
                               usable.emplace_back(partition, headroom);
                             });

  std::vector<LinTerm> objective;
  if (!fits) {
    // The option cannot be satisfied inside this window: pin I = 0 instead of
    // emitting an unusable subtree (the paper's expression culling).
    model.AddConstraint({{I, 1.0}}, ConstraintSense::kLessEqual, 0.0, "cull");
    StrlCompileAccess::leaves(*ctx.out).push_back(std::move(info));
    if (expr.tag != kNoTag) {
      StrlCompileAccess::tags(*ctx.out)[expr.tag] =
          static_cast<int>(StrlCompileAccess::leaves(*ctx.out).size()) - 1;
    }
    return objective;
  }

  if (!info.linear && usable.size() == 1) {
    // Single-partition nCk: P == k * I, no partition variable needed.
    PartitionId partition = usable[0].first;
    info.partitions.push_back(partition);
    info.partition_vars.push_back(-1);
    TrackUsage(ctx, partition, expr.start, expr.duration, I,
               static_cast<double>(expr.k));
    objective.push_back({I, expr.value});
  } else {
    std::vector<LinTerm> demand;
    for (const auto& [partition, headroom] : usable) {
      VarId p = model.AddIntegerVar(0.0, headroom, "P");
      info.partitions.push_back(partition);
      info.partition_vars.push_back(p);
      TrackUsage(ctx, partition, expr.start, expr.duration, p, 1.0);
      demand.push_back({p, 1.0});
    }
    if (info.linear) {
      // (Demand) sum P <= k * I; value flows per granted node.
      demand.push_back({I, -static_cast<double>(expr.k)});
      model.AddConstraint(std::move(demand), ConstraintSense::kLessEqual, 0.0,
                          "ldemand");
      for (size_t i = 0; i < info.partition_vars.size(); ++i) {
        objective.push_back(
            {info.partition_vars[i], expr.value / expr.k});
      }
    } else {
      // (Demand) sum P == k * I.
      demand.push_back({I, -static_cast<double>(expr.k)});
      model.AddConstraint(std::move(demand), ConstraintSense::kEqual, 0.0,
                          "demand");
      objective.push_back({I, expr.value});
    }
  }

  StrlCompileAccess::leaves(*ctx.out).push_back(std::move(info));
  if (expr.tag != kNoTag) {
    StrlCompileAccess::tags(*ctx.out)[expr.tag] =
        static_cast<int>(StrlCompileAccess::leaves(*ctx.out).size()) - 1;
  }
  return objective;
}

std::vector<LinTerm> Gen(GenContext& ctx, const StrlExpr& expr, VarId I) {
  MilpModel& model = StrlCompileAccess::model(*ctx.out);
  switch (expr.kind) {
    case StrlKind::kNCk:
    case StrlKind::kLnCk:
      return GenLeaf(ctx, expr, I);

    case StrlKind::kMax: {
      std::vector<LinTerm> objective;
      std::vector<LinTerm> choice;
      choice.reserve(expr.children.size() + 1);
      ctx.indicator_chain.push_back(I);
      for (const StrlExpr& child : expr.children) {
        VarId child_i = model.AddBinaryVar();
        std::vector<LinTerm> child_obj = Gen(ctx, child, child_i);
        objective.insert(objective.end(), child_obj.begin(), child_obj.end());
        choice.push_back({child_i, 1.0});
      }
      ctx.indicator_chain.pop_back();
      // At most one child may be chosen (and none if I == 0).
      choice.push_back({I, -1.0});
      model.AddConstraint(std::move(choice), ConstraintSense::kLessEqual, 0.0,
                          "max_choice");
      return objective;
    }

    case StrlKind::kSum: {
      std::vector<LinTerm> objective;
      std::vector<LinTerm> gate;
      gate.reserve(expr.children.size() + 1);
      ctx.indicator_chain.push_back(I);
      for (const StrlExpr& child : expr.children) {
        VarId child_i = model.AddBinaryVar();
        std::vector<LinTerm> child_obj = Gen(ctx, child, child_i);
        objective.insert(objective.end(), child_obj.begin(), child_obj.end());
        gate.push_back({child_i, 1.0});
      }
      ctx.indicator_chain.pop_back();
      // Up to n children; all gated off when I == 0.
      gate.push_back({I, -static_cast<double>(expr.children.size())});
      model.AddConstraint(std::move(gate), ConstraintSense::kLessEqual, 0.0,
                          "sum_gate");
      return objective;
    }

    case StrlKind::kMin: {
      // V represents the minimum child value; maximization pushes V up to it.
      VarId v = model.AddContinuousVar(0.0, kInfinity, "min_v");
      for (const StrlExpr& child : expr.children) {
        std::vector<LinTerm> child_obj = Gen(ctx, child, I);
        // child objective - V >= 0.
        child_obj.push_back({v, -1.0});
        model.AddConstraint(std::move(child_obj),
                            ConstraintSense::kGreaterEqual, 0.0, "min_bound");
      }
      return {{v, 1.0}};
    }

    case StrlKind::kScale: {
      std::vector<LinTerm> objective = Gen(ctx, expr.children[0], I);
      for (LinTerm& term : objective) {
        term.coeff *= expr.scalar;
      }
      return objective;
    }

    case StrlKind::kBarrier: {
      std::vector<LinTerm> inner = Gen(ctx, expr.children[0], I);
      // v * I <= f(child).
      inner.push_back({I, -expr.scalar});
      model.AddConstraint(std::move(inner), ConstraintSense::kGreaterEqual,
                          0.0, "barrier");
      return {{I, expr.scalar}};
    }
  }
  return {};
}

}  // namespace

StrlCompiler::StrlCompiler(const AvailabilityGrid& availability)
    : availability_(availability) {}

bool StrlCompiler::AnyLeafFits(const StrlExpr& root) const {
  return AnyFits(availability_, root);
}

CompiledStrl StrlCompiler::Compile(const StrlExpr& root) {
  CompiledStrl out;
  GenContext ctx{availability_, &out, {}, {}, {}};
  // One indicator per node and one choice or cull row per node covers a
  // model whose leaves were culled; P variables and supply rows add more.
  const int nodes = CountNodes(root);
  StrlCompileAccess::model(out).Reserve(nodes + 1, nodes, 2 * nodes);
  StrlCompileAccess::leaves(out).reserve(nodes);

  // Free binary root indicator, exactly as in Algorithm 1's genAndSolve: the
  // optimizer turns the root on whenever positive value is reachable, and a
  // root that cannot be satisfied (e.g. a culled leaf) simply stays off.
  VarId root_i = StrlCompileAccess::model(out).AddBinaryVar("root");
  StrlCompileAccess::root(out) = root_i;

  std::vector<LinTerm> objective;
  if (root.kind == StrlKind::kSum) {
    // A top-level SUM (the aggregate objective: one child per pending job) is
    // compiled without its gate row. The gate `sum I_child - n * I_root <= 0`
    // is vacuous at the root — the free root indicator can always be 1, SUM
    // admits any child subset, and the root carries no objective weight — but
    // it stitches every job subtree into one connected component. Dropping it
    // is exact and lets jobs that share no supply row split into independent
    // sub-MILPs (see solver/decompose.h).
    MilpModel& model = StrlCompileAccess::model(out);
    ctx.indicator_chain.push_back(root_i);
    for (const StrlExpr& child : root.children) {
      VarId child_i = model.AddBinaryVar();
      std::vector<LinTerm> child_obj = Gen(ctx, child, child_i);
      objective.insert(objective.end(), child_obj.begin(), child_obj.end());
    }
    ctx.indicator_chain.pop_back();
  } else {
    objective = Gen(ctx, root, root_i);
  }
  for (const LinTerm& term : objective) {
    StrlCompileAccess::model(out).AddObjectiveTerm(term.var, term.coeff);
  }

  // (Supply) per partition per slice: usage <= available capacity, in
  // (partition, slice) order, each row's terms in leaf order. Row ids plus
  // slice geometry are retained so the scheduler can later ask which
  // saturated rows blocked a rejected job's alternatives.
  const TimeGrid& grid = availability_.grid();
  StrlCompileAccess::grid(out) = grid;
  for (size_t cell = 0; cell < ctx.used.size(); ++cell) {
    std::vector<LinTerm>& terms = ctx.used[cell];
    if (terms.empty()) {
      continue;
    }
    PartitionId partition = static_cast<PartitionId>(cell / grid.num_slices);
    int slice = static_cast<int>(cell % grid.num_slices);
    double avail = std::max(0, availability_.avail(partition, slice));
    ConstraintId row = StrlCompileAccess::model(out).AddConstraint(
        std::move(terms), ConstraintSense::kLessEqual, avail, "supply");
    StrlCompileAccess::supply_rows(out).push_back(
        {row, partition, slice, grid.SliceStart(slice), avail, 0.0});
  }
  return out;
}

std::vector<SupplyRowRef> CompiledStrl::BindingSupplyRows(
    std::span<const double> values, double tol) const {
  std::vector<SupplyRowRef> binding;
  for (const SupplyRowRef& ref : supply_rows_) {
    double activity = 0.0;
    for (const LinTerm& term : model_.constraint_terms(ref.row)) {
      activity += term.coeff * values[term.var];
    }
    if (activity >= ref.rhs - tol) {
      SupplyRowRef hit = ref;
      hit.activity = activity;
      binding.push_back(hit);
    }
  }
  return binding;
}

std::vector<SupplyRowRef> CompiledStrl::RowsTouchingLeaf(
    LeafTag tag, const std::vector<SupplyRowRef>& rows) const {
  std::vector<SupplyRowRef> touching;
  auto it = tag_to_leaf_.find(tag);
  if (it == tag_to_leaf_.end()) {
    return touching;
  }
  const LeafInfo& leaf = leaves_[it->second];
  auto [first, last] = grid_.ClippedSliceRange(leaf.start, leaf.duration);
  for (const SupplyRowRef& ref : rows) {
    if (ref.slice < first || ref.slice >= last) {
      continue;
    }
    if (std::find(leaf.partitions.begin(), leaf.partitions.end(),
                  ref.partition) != leaf.partitions.end()) {
      touching.push_back(ref);
    }
  }
  return touching;
}

bool CompiledStrl::AllLeavesCulled() const {
  return !leaves_.empty() &&
         std::all_of(leaves_.begin(), leaves_.end(), [](const LeafInfo& leaf) {
           return leaf.partitions.empty();
         });
}

bool CompiledStrl::LeafCulledAtCompile(LeafTag tag) const {
  auto it = tag_to_leaf_.find(tag);
  return it != tag_to_leaf_.end() && leaves_[it->second].partitions.empty();
}

std::vector<StrlAllocation> CompiledStrl::ExtractAllocations(
    std::span<const double> values) const {
  std::vector<StrlAllocation> allocations;
  for (const LeafInfo& leaf : leaves_) {
    if (values[leaf.indicator] < 0.5) {
      continue;
    }
    StrlAllocation alloc;
    alloc.tag = leaf.tag;
    alloc.start = leaf.start;
    alloc.duration = leaf.duration;
    alloc.value = leaf.value;
    for (size_t i = 0; i < leaf.partitions.size(); ++i) {
      int count;
      if (leaf.partition_vars[i] < 0) {
        count = leaf.k;  // collapsed single-partition leaf
      } else {
        count = static_cast<int>(std::lround(values[leaf.partition_vars[i]]));
      }
      if (count > 0) {
        alloc.counts[leaf.partitions[i]] = count;
      }
    }
    if (alloc.counts.empty()) {
      continue;  // chosen LnCk with zero grant contributes nothing
    }
    allocations.push_back(std::move(alloc));
  }
  return allocations;
}

std::vector<VarId> CompiledStrl::LeafVars(int leaf) const {
  const LeafInfo& info = leaves_[leaf];
  std::vector<VarId> vars;
  vars.reserve(1 + info.partition_vars.size());
  vars.push_back(info.indicator);
  for (VarId p : info.partition_vars) {
    if (p >= 0) {  // -1: collapsed single-partition leaf, P == k * I
      vars.push_back(p);
    }
  }
  return vars;
}

std::vector<double> CompiledStrl::BuildWarmStart(
    const LeafGrants& grants) const {
  std::vector<double> values(model_.num_vars(), 0.0);
  values[root_indicator_] = 1.0;
  for (const auto& [tag, counts] : grants) {
    auto it = tag_to_leaf_.find(tag);
    if (it == tag_to_leaf_.end()) {
      // The job set changed since the previous cycle (the granted leaf was
      // not recompiled), so the whole hint is unusable and the solver starts
      // cold. Keep warm-start efficacy visible: count every miss, log only
      // on power-of-two totals so a churn-heavy workload cannot flood the
      // log (BuildWarmStart bails on the first stale tag, so this fires at
      // most once per cycle anyway).
      static Counter* misses =
          GlobalMetrics().GetCounter("tetrisched_warmstart_miss_total");
      misses->Increment();
      const int64_t total = misses->value();
      if ((total & (total - 1)) == 0) {
        TETRI_LOG(kWarning) << "warm-start miss: previous-cycle leaf tag "
                            << tag << " absent from the compiled model ("
                            << total << " misses total)";
      }
      return {};
    }
    const LeafInfo& leaf = leaves_[it->second];
    values[leaf.indicator] = 1.0;
    for (VarId ancestor : leaf.ancestor_indicators) {
      values[ancestor] = 1.0;
    }
    for (size_t i = 0; i < leaf.partitions.size(); ++i) {
      auto count_it = counts.find(leaf.partitions[i]);
      if (count_it == counts.end()) {
        continue;
      }
      if (leaf.partition_vars[i] >= 0) {
        values[leaf.partition_vars[i]] =
            static_cast<double>(count_it->second);
      }
    }
  }
  return values;
}

}  // namespace tetrisched
