#include "src/core/strl_gen.h"

#include <algorithm>
#include <cassert>

#include "src/compiler/compiler.h"

namespace tetrisched {
namespace {

// Tag layout: ((job * kMaxSlots) + absolute_slot) * kMaxKinds + kind.
// Stable across cycles (slots are absolute quantum indices), which is what
// lets the previous cycle's plan warm-start the next cycle's MILP.
constexpr int64_t kMaxKinds = 64;
constexpr int64_t kMaxSlots = int64_t{1} << 24;

constexpr int kKindPreferred = 0;
constexpr int kKindFallback = 1;
constexpr int kKindRackBase = 2;  // + rack id

LeafTag MakeTag(JobId job, SimTime start, SimDuration quantum,
                int option_kind) {
  int64_t slot = start / quantum;
  assert(slot >= 0 && slot < kMaxSlots && option_kind < kMaxKinds);
  return (job * kMaxSlots + slot) * kMaxKinds + option_kind;
}

// One nCk leaf of a job's option tree, as ForEachOption enumerates it.
// `leg` marks one rack leg of an availability job's MIN.
struct OptionLeaf {
  const PartitionSet& partitions;
  int k;
  SimTime start;
  SimDuration duration;
  double value;
  bool preferred;
  int kind;
  bool leg;
};

}  // namespace

std::string OptionKindName(int option_kind) {
  if (option_kind == kKindPreferred) {
    return "preferred";
  }
  if (option_kind == kKindFallback) {
    return "fallback";
  }
  return "rack" + std::to_string(option_kind - kKindRackBase);
}

StrlGenerator::StrlGenerator(const Cluster& cluster, StrlGenOptions options)
    : cluster_(cluster), options_(options) {
  assert(options_.quantum > 0 && options_.plan_ahead >= options_.quantum);
}

ValueFunction StrlGenerator::JobValue(const Job& job) const {
  switch (job.slo_class) {
    case SloClass::kSloAccepted:
      return AcceptedSloValue(job.deadline);
    case SloClass::kSloUnreserved:
      return UnreservedSloValue(job.deadline);
    case SloClass::kBestEffort:
      return BestEffortValue(job.submit, options_.be_decay_horizon);
  }
  return BestEffortValue(job.submit, options_.be_decay_horizon);
}

template <typename Visitor>
void StrlGenerator::ForEachOption(const Job& job, SimTime now,
                                  Visitor& visitor) const {
  const ValueFunction value_fn = JobValue(job);
  const PartitionSet& all = cluster_.AllPartitions();
  const bool het = options_.heterogeneity_aware;
  // Fast (preferred) and slow (fallback) runtimes as the scheduler
  // estimates them.
  const SimDuration fast = job.EstimatedRuntime(/*preferred=*/true);
  const SimDuration slow = job.EstimatedRuntime(/*preferred=*/false);
  const bool all_holds = cluster_.num_nodes() >= job.k;

  // Candidate starts in [now, now + plan_ahead): `now` itself, then absolute
  // quantum-aligned instants.
  const SimTime horizon = now + options_.plan_ahead;
  for (SimTime start = now; start < horizon;
       start = QuantizeDown(start, options_.quantum) + options_.quantum) {
    // Completion-time shading breaks the tie between options a step value
    // function rates equally: faster placements and earlier starts win.
    const double v_fast =
        ShadeByCompletion(value_fn.At(start + fast), now, start + fast);
    const double v_slow =
        ShadeByCompletion(value_fn.At(start + slow), now, start + slow);
    auto leaf = [&](const PartitionSet& partitions, int k, SimDuration dur,
                    double value, bool preferred, int kind, bool leg) {
      return visitor.Leaf(
          OptionLeaf{partitions, k, start, dur, value, preferred, kind, leg});
    };

    switch (het ? job.type : JobType::kUnconstrained) {
      case JobType::kUnconstrained: {
        // NH mode treats every job as unconstrained but must stay
        // conservative about its runtime (paper §6.3), i.e. it does not
        // believe the placement is preferred.
        const double v = het ? v_fast : v_slow;
        if (v > 0.0 && all_holds &&
            !leaf(all, job.k, het ? fast : slow, v, /*preferred=*/het,
                  kKindPreferred, false)) {
          return;
        }
        break;
      }

      case JobType::kDataLocal:
      case JobType::kGpu: {
        const bool data_local = job.type == JobType::kDataLocal;
        const PartitionSet& preferred = data_local
                                            ? job.preferred_partitions
                                            : cluster_.GpuPartitions();
        const int capacity = data_local ? cluster_.CapacityOf(preferred)
                                        : cluster_.num_gpu_nodes();
        if (v_fast > 0.0 && capacity >= job.k &&
            !leaf(preferred, job.k, fast, v_fast, true, kKindPreferred,
                  false)) {
          return;
        }
        if (v_slow > 0.0 && all_holds &&
            !leaf(all, job.k, slow, v_slow, false, kKindFallback, false)) {
          return;
        }
        break;
      }

      case JobType::kMpi: {
        if (v_fast > 0.0) {
          for (RackId rack = 0; rack < cluster_.num_racks(); ++rack) {
            if (cluster_.RackCapacity(rack) >= job.k &&
                !leaf(cluster_.RackPartitions(rack), job.k, fast, v_fast,
                      true, kKindRackBase + rack, false)) {
              return;
            }
          }
        }
        if (v_slow > 0.0 && all_holds &&
            !leaf(all, job.k, slow, v_slow, false, kKindFallback, false)) {
          return;
        }
        break;
      }

      case JobType::kAvailability: {
        // One task on each of min(k, num_racks) racks, all required (MIN),
        // so an empty rack among them leaves no option.
        const int racks = std::min(job.k, cluster_.num_racks());
        bool racks_hold = racks > 0;
        for (RackId rack = 0; rack < racks; ++rack) {
          racks_hold = racks_hold && cluster_.RackCapacity(rack) >= 1;
        }
        if (v_fast > 0.0 && racks_hold) {
          for (RackId rack = 0; rack < racks; ++rack) {
            if (!leaf(cluster_.RackPartitions(rack), 1, fast, v_fast, true,
                      kKindRackBase + rack, true)) {
              return;
            }
          }
        }
        break;
      }
    }
    visitor.EndStart();
  }
}

std::optional<StrlExpr> StrlGenerator::GenerateJobExpr(
    const Job& job, SimTime now, OptionRegistry* registry) const {
  // Per start: the options (an availability job's legs joined under one
  // MIN) under a MAX; the starts under a MAX at the root.
  struct Builder {
    const Job& job;
    SimDuration quantum;
    OptionRegistry* registry;
    std::vector<StrlExpr> legs;
    std::vector<StrlExpr> options;
    std::vector<StrlExpr> starts;

    bool Leaf(const OptionLeaf& leaf) {
      const LeafTag tag = MakeTag(job.id, leaf.start, quantum, leaf.kind);
      (leaf.leg ? legs : options)
          .push_back(NCk(leaf.partitions, leaf.k, leaf.start, leaf.duration,
                         leaf.value, tag));
      if (registry != nullptr) {
        (*registry)[tag] = JobOption{job.id, leaf.start, leaf.duration,
                                     leaf.preferred, leaf.value, leaf.kind};
      }
      return true;
    }

    void EndStart() {
      if (!legs.empty()) {
        options.push_back(legs.size() == 1 ? std::move(legs[0])
                                           : Min(std::move(legs)));
        legs.clear();
      }
      if (!options.empty()) {
        starts.push_back(options.size() == 1 ? std::move(options[0])
                                             : Max(std::move(options)));
        options.clear();
      }
    }
  } builder{job, options_.quantum, registry, {}, {}, {}};
  ForEachOption(job, now, builder);

  if (builder.starts.empty()) {
    return std::nullopt;
  }
  if (builder.starts.size() == 1) {
    return std::move(builder.starts[0]);
  }
  return Max(std::move(builder.starts));
}

ProbeResult StrlGenerator::Probe(const Job& job, SimTime now,
                                 const AvailabilityGrid& availability) const {
  struct Prober {
    const AvailabilityGrid& availability;
    ProbeResult result = ProbeResult::kNoOption;

    bool Leaf(const OptionLeaf& leaf) {
      if (LeafFits(availability, leaf.partitions, leaf.k, leaf.start,
                   leaf.duration)) {
        result = ProbeResult::kFits;
        return false;
      }
      result = ProbeResult::kNoFit;
      return true;
    }

    void EndStart() {}
  } prober{availability};
  ForEachOption(job, now, prober);
  return prober.result;
}

}  // namespace tetrisched
