#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>

#include "src/core/plan_check.h"
#include "src/common/atomic_io.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/obs/provenance.h"
#include "src/persist/journal.h"

namespace tetrisched {

namespace {

// Registry-backed simulator instruments (DESIGN.md §10): per-cycle pending
// depth plus churn/outcome event counters. SimMetrics stays the per-run
// snapshot computed locally; these accumulate process-wide.
struct SimInstruments {
  Histogram* pending_depth;  // pending jobs offered to the policy per cycle
  Counter* cycles;
  Counter* fallback_cycles;
  Counter* validator_violations;
  Counter* failure_kills;
  Counter* node_failures;
  Counter* node_recoveries;
  Counter* stragglers;
  Counter* preemptions;
  Counter* retries_exhausted;
  Counter* jobs_completed;
  Counter* jobs_dropped;
  Counter* scheduler_crashes;
  // Lossy-control-plane instruments (DESIGN.md §15).
  Counter* detector_suspicions;
  Counter* detector_false_suspicions;
  Counter* detector_dead_declared;
  Counter* detector_fenced_tasks;
  Counter* detector_orphans_adopted;
  Counter* detector_stale_bounces;
  Counter* detector_heartbeats_dropped;
  Counter* detector_commands_dropped;
};

SimInstruments& Instruments() {
  MetricsRegistry& registry = GlobalMetrics();
  static const std::vector<double> kDepthBounds{
      0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
  static SimInstruments instruments{
      registry.GetHistogram("tetrisched_sim_pending_depth", kDepthBounds),
      registry.GetCounter("tetrisched_sim_cycles_total"),
      registry.GetCounter("tetrisched_sim_fallback_cycles_total"),
      registry.GetCounter("tetrisched_sim_validator_violations_total"),
      registry.GetCounter("tetrisched_sim_failure_kills_total"),
      registry.GetCounter("tetrisched_sim_node_failures_total"),
      registry.GetCounter("tetrisched_sim_node_recoveries_total"),
      registry.GetCounter("tetrisched_sim_stragglers_total"),
      registry.GetCounter("tetrisched_sim_preemptions_total"),
      registry.GetCounter("tetrisched_sim_retries_exhausted_total"),
      registry.GetCounter("tetrisched_sim_jobs_completed_total"),
      registry.GetCounter("tetrisched_sim_jobs_dropped_total"),
      registry.GetCounter("tetrisched_sim_scheduler_crashes_total"),
      registry.GetCounter("tetrisched_detector_suspicions_total"),
      registry.GetCounter("tetrisched_detector_false_suspicions_total"),
      registry.GetCounter("tetrisched_detector_dead_declared_total"),
      registry.GetCounter("tetrisched_detector_fenced_tasks_total"),
      registry.GetCounter("tetrisched_detector_orphans_adopted_total"),
      registry.GetCounter("tetrisched_detector_stale_bounces_total"),
      registry.GetCounter("tetrisched_detector_heartbeats_dropped_total"),
      registry.GetCounter("tetrisched_detector_commands_dropped_total"),
  };
  return instruments;
}

// The simulator's side of a launch. Under a lossy control plane a
// placement avoids believed-down nodes and the launch command must reach
// every member or none: a shortfall or a lost command bounces the plan as
// stale (the agent-side slots are released; the gang retries next cycle).
// Fail-slow episodes active on a gang's nodes at start stretch its runtime,
// and an injected crash fires at its commit point.
class SimLaunchHook : public LaunchHook {
 public:
  SimLaunchHook(ControlPlane& comms,
                const std::vector<StragglerEvent>& active_stragglers)
      : comms_(comms), active_stragglers_(active_stragglers) {}

  // This cycle's crash, when one is due inside the commit.
  const SchedulerCrashEvent* crash = nullptr;

  Verdict Acquire(SimTime now, const Placement& placement, NodeLedger& ledger,
                  std::vector<NodeId>* nodes, const char** why) override {
    if (!comms_.active()) {
      return LaunchHook::Acquire(now, placement, ledger, nodes, why);
    }
    const std::vector<char>& down = comms_.believed_down_mask();
    for (const auto& [partition, count] : placement.counts) {
      // Physically impossible (or only satisfiable by placing onto
      // believed-down nodes): the believed view was stale.
      if (count > ledger.FreeAvoiding(partition, down)) {
        *why = "capacity";
        return Verdict::kBounced;
      }
    }
    for (const auto& [partition, count] : placement.counts) {
      std::vector<NodeId> taken =
          ledger.AcquireAvoiding(partition, count, down);
      nodes->insert(nodes->end(), taken.begin(), taken.end());
      if (static_cast<int>(taken.size()) < count) {
        ledger.Release(*nodes);
        *why = "short-take";
        return Verdict::kBounced;
      }
    }
    for (NodeId member : *nodes) {
      if (!comms_.DeliverCommand(member, now)) {
        ledger.Release(*nodes);
        *why = "command-lost";
        return Verdict::kBounced;
      }
    }
    // Delivered placement commands carry the current fence epoch;
    // accepting one adopts it.
    for (NodeId member : *nodes) {
      comms_.AgentAdoptEpoch(member);
    }
    return Verdict::kLaunched;
  }

  double Slowdown(const std::vector<NodeId>& nodes) override {
    double factor = 1.0;
    for (const StragglerEvent& event : active_stragglers_) {
      if (std::find(nodes.begin(), nodes.end(), event.node) != nodes.end()) {
        factor = std::max(factor, event.slowdown);
      }
    }
    return factor;
  }

  void AtCommitPoint(CommitPoint point) override {
    if (crash == nullptr) {
      return;
    }
    const CrashPhase phase = crash->phase;
    if ((point == CommitPoint::kIntent && phase == CrashPhase::kCommitIntent) ||
        (point == CommitPoint::kMidCommit &&
         phase == CrashPhase::kMidCommit) ||
        (point == CommitPoint::kApplied && phase == CrashPhase::kAfterCommit)) {
      throw SchedulerCrashSignal{};
    }
  }

 private:
  ControlPlane& comms_;
  const std::vector<StragglerEvent>& active_stragglers_;
};

void WriteFileOrWarn(const std::string& path, const std::string& content) {
  // Crash-atomic: a run dying mid-export must never leave a truncated
  // artifact where consumers expect a complete one.
  if (!WriteFileAtomic(path, content)) {
    TETRI_LOG(kWarning) << "cannot write export " << path;
  }
}

}  // namespace

Simulator::Simulator(const Cluster& cluster, SchedulerPolicy& policy,
                     std::vector<Job> jobs, SimConfig config)
    : cluster_(cluster),
      policy_(policy),
      jobs_(std::move(jobs)),
      config_(config) {
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) { return a.submit < b.submit; });
  // Export paths left empty by the caller default from the environment, so
  // `TETRISCHED_TRACE_JSON=trace.json bench/fig_churn` just works.
  auto env_default = [](std::string& field, const char* var) {
    if (field.empty()) {
      const char* value = std::getenv(var);
      if (value != nullptr && *value != '\0') {
        field = value;
      }
    }
  };
  env_default(config_.metrics_json_path, "TETRISCHED_METRICS_JSON");
  env_default(config_.metrics_prom_path, "TETRISCHED_METRICS_PROM");
  env_default(config_.trace_json_path, "TETRISCHED_TRACE_JSON");
  if (config_.provenance != SimConfig::ProvenanceMode::kOff) {
    env_default(config_.provenance_jsonl_path, "TETRISCHED_PROVENANCE_JSONL");
  }
}

SimMetrics Simulator::Run() {
  SimInstruments& sim_ins = Instruments();
  const bool exporting = !config_.metrics_json_path.empty() ||
                         !config_.metrics_prom_path.empty() ||
                         !config_.trace_json_path.empty();
  const bool prev_observability = ObservabilityEnabled();
  if (exporting) {
    SetObservabilityEnabled(true);
    if (!config_.trace_json_path.empty()) {
      // Each run's trace is self-contained: drop spans of earlier runs.
      SpanCollector::Global().Clear();
    }
  }

  // Decision provenance (DESIGN.md §14): the flight recorder runs under kOn,
  // or under kAuto when a JSONL export path is configured; kOff forces it
  // off (benches measure a provenance-free baseline this way even when the
  // environment requests an export). The caller's prior recorder state is
  // restored on exit so nested runs compose; buffered records survive the
  // restore, so tests can Snapshot() after Run().
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  const bool prev_provenance = prov.enabled();
  const bool prov_on =
      config_.provenance == SimConfig::ProvenanceMode::kOn ||
      (config_.provenance == SimConfig::ProvenanceMode::kAuto &&
       !config_.provenance_jsonl_path.empty());
  if (prov_on) {
    prov.Enable(config_.provenance_ring);
  } else if (config_.provenance == SimConfig::ProvenanceMode::kOff) {
    prov.SetEnabled(false);
  }

  SimMetrics metrics;
  const int n = static_cast<int>(jobs_.size());

  // Persistence and scheduler-crash harness (DESIGN.md §11). The active
  // policy is held by pointer so recovery can swap in a freshly built one.
  SchedulerPolicy* policy = &policy_;
  std::unique_ptr<SchedulerPolicy> owned_policy;
  std::vector<SchedulerCrashEvent> crashes = config_.scheduler_crashes;
  std::stable_sort(crashes.begin(), crashes.end(),
                   [](const SchedulerCrashEvent& a,
                      const SchedulerCrashEvent& b) { return a.at < b.at; });
  size_t next_crash = 0;
  std::unique_ptr<PersistenceManager> owned_persist;
  PersistenceManager* persist = config_.persist;
  if (persist == nullptr && !crashes.empty()) {
    // Crashes need a journal to recover from; default to an in-memory one.
    owned_persist = std::make_unique<PersistenceManager>(
        std::make_unique<MemoryJournalStorage>());
    persist = owned_persist.get();
  }

  RuntimeParams params;
  params.rayon = config_.rayon;
  params.persist = persist;
  params.trace = config_.trace;
  params.max_retries = config_.max_retries;
  params.retry_backoff = config_.retry_backoff;
  params.retry_backoff_cap = config_.retry_backoff_cap;
  params.learn_estimates = config_.learn_estimates;
  ClusterRuntime runtime(cluster_, params);
  for (const Job& job : jobs_) {
    runtime.AddJob(job);
  }
  runtime.CheckpointInitial(*policy);
  NodeLedger& ledger = runtime.ledger();

  // Fault injection bookkeeping. Scripted failure lists are validated up
  // front — entries with recover_at <= at, out-of-range node ids, or
  // overlapping duplicates are dropped with one warning each instead of
  // being silently skipped mid-run.
  std::vector<NodeFailure> failures =
      NormalizeNodeFailures(cluster_, config_.node_failures);
  size_t next_failure = 0;
  std::priority_queue<std::pair<SimTime, NodeId>,
                      std::vector<std::pair<SimTime, NodeId>>, std::greater<>>
      recoveries;
  std::map<NodeId, SimTime> failed_nodes;  // node -> recover_at

  // Fail-slow (straggler) bookkeeping: episodes activate at `at`, expire at
  // `recover_at`, and only affect gangs *started* while active.
  std::vector<StragglerEvent> stragglers = config_.stragglers;
  std::stable_sort(stragglers.begin(), stragglers.end(),
                   [](const StragglerEvent& a, const StragglerEvent& b) {
                     return a.at != b.at ? a.at < b.at : a.node < b.node;
                   });
  size_t next_straggler = 0;
  std::vector<StragglerEvent> active_stragglers;
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>>
      straggler_ends;

  // Lossy control plane (DESIGN.md §15). When active, the runtime's running
  // set is the scheduler's *believed* one: a gang stays in it after a
  // member node physically dies (broken, it can never complete) until the
  // failure detector suspects the node and the gang is recalled. Copies the
  // scheduler recalled but could not kill (node down, partitioned, or the
  // kill command dropped) move to `orphans`: they still occupy ledger nodes
  // — ground truth — until reconciliation either adopts them back (intact
  // copy, job still pending, every member reachable) or fences them (stale
  // epoch). With `lossy` false none of this machinery runs and the code
  // path is byte-identical to the pre-§15 simulator.
  ControlPlane comms(cluster_, config_.comms);
  const bool lossy = comms.active();
  struct OrphanJob {
    RunningJob run;
    bool intact = true;  // no member killed or physically dead: adoptable
  };
  std::map<JobId, OrphanJob> orphans;
  // Believed-running gangs with physically dead members (the copy died with
  // its node, but the scheduler has not noticed yet). Keyed by gang, value =
  // the dead members; run.nodes keeps listing them because they are still
  // part of the *belief*, so recall and the invariant check must skip them.
  std::map<JobId, std::set<NodeId>> broken;
  int64_t cycle_count = 0;
  auto counts_of = [&](const std::vector<NodeId>& nodes) {
    std::map<PartitionId, int> counts;
    for (NodeId node : nodes) {
      ++counts[cluster_.partition_of(node)];
    }
    return counts;
  };
  SimLaunchHook hook(comms, active_stragglers);

  int next_arrival = 0;
  SimTime now = 0;
  SimTime next_cycle = 0;
  SimTime last_event = 0;
  double busy_node_seconds = 0.0;

  // Every occupied ledger node not taken out by a failure holds a copy.
  auto advance_to = [&](SimTime t) {
    const int busy_nodes = cluster_.num_nodes() - ledger.total_free() -
                           static_cast<int>(failed_nodes.size());
    busy_node_seconds += static_cast<double>(busy_nodes) *
                         static_cast<double>(t - last_event);
    last_event = t;
  };

  // A node out of service, as the policy sees it: an unpreemptible hold.
  auto node_hold = [&](NodeId node, SimTime until) {
    RunningHold hold;
    hold.job = -1000 - node;  // synthetic id, never matches a real job
    hold.slo_class = SloClass::kSloAccepted;
    hold.reservation_end = kTimeNever;
    hold.counts[cluster_.partition_of(node)] = 1;
    hold.expected_end = until;
    return hold;
  };

  // Crash + recovery: the scheduler process dies, losing all RM-side state
  // (policy internals, Rayon agenda, retry/backoff, estimator). Cluster
  // ground truth — the ledger, running gangs, the jobs themselves — survives
  // (work-preserving restart). The runtime rebuilds the RM view from
  // snapshot + journal replay and reconciles it against the surviving
  // cluster; the simulator then restarts the policy and re-validates.
  auto recover_scheduler = [&](CrashPhase phase) {
    auto wall_start = std::chrono::steady_clock::now();
    ++metrics.scheduler_crashes;
    sim_ins.scheduler_crashes->Increment();
    runtime.Trace({now, TraceEventKind::kSchedulerCrash, -1, -1,
           static_cast<int32_t>(phase)});
    TETRI_LOG(kInfo) << "scheduler crash injected at t=" << now << " (phase "
                     << ToString(phase) << "); recovering";
    if (prov.enabled()) {
      prov.Record(
          {.kind = ProvKind::kCrash, .time = now, .label = ToString(phase),
           .detail = {}});
    }

    RecoveryResult rec = runtime.RecoverAfterCrash(now);
    const RecoveredState& st = runtime.image();
    // Fence epochs (DESIGN.md §15): kEpochBump records journal each bump
    // *before* the in-memory table changes, so the recovered table is always
    // >= any epoch a node agent may have adopted — a restart can never issue
    // commands under a stale epoch and resurrect a fenced placement.
    // Max-merge because the in-process control plane also survives the
    // simulated crash.
    comms.RestoreFenceEpochs(st.epochs);

    // Fresh scheduler process: rebuild the policy, import durable state.
    if (config_.policy_factory) {
      owned_policy = config_.policy_factory();
      policy = owned_policy.get();
    }
    policy->ImportDurableState(st.policy_state);

    // Post-recovery validation: the recovered running set, re-checked as a
    // plan against full capacity minus failed nodes. Zero violations is the
    // recovery invariant.
    std::vector<const Job*> believed_running;
    std::vector<Placement> recovered_plan;
    for (const auto& [id, gang] : st.running) {
      believed_running.push_back(&runtime.job(runtime.index_of(id)));
      recovered_plan.push_back({id, gang.counts, gang.est_duration});
    }
    std::vector<RunningHold> failed_holds;
    for (const auto& [node, recover_at] : failed_nodes) {
      failed_holds.push_back(node_hold(node, recover_at));
    }
    for (const PlanViolation& violation : ValidatePlan(
             cluster_, believed_running, failed_holds, recovered_plan)) {
      ++metrics.validator_violations;
      TETRI_LOG(kWarning) << "post-recovery validation: job " << violation.job
                          << ": " << violation.reason;
    }

    ++metrics.recoveries;
    metrics.journal_replayed += rec.replayed;
    metrics.journal_dropped += rec.dropped;
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    metrics.recovery_ms.Add(ms);
    runtime.Trace({now, TraceEventKind::kRecover, -1, -1, rec.replayed, ms});
    if (prov.enabled()) {
      prov.Record({.kind = ProvKind::kRecovery,
                   .time = now,
                   .value = static_cast<double>(rec.replayed),
                   .label = {},
                   .detail = JsonObj()
                                 .Field("replayed", rec.replayed)
                                 .Field("dropped", rec.dropped)
                                 .Field("snapshot_loaded", rec.snapshot_loaded)
                                 .Field("ms", ms)
                                 .str()});
    }
  };

  // Journals an epoch bump (WAL-first) and applies it to the control plane.
  auto fence_node = [&](NodeId node) {
    DurableEvent bump;
    bump.kind = DurableEventKind::kEpochBump;
    bump.time = now;
    bump.node = node;
    bump.epoch = comms.fence_epoch(node) + 1;
    runtime.Journal(bump);
    comms.FenceNode(node);
  };

  // Lossy-mode recall: the detector gave up on `sus` (suspected, declared
  // dead, or observed to have silently rebooted); every believed-running
  // gang touching it is killed and requeued. Members the kill command
  // reaches release their nodes; unreachable members become an orphan copy
  // whose nodes each get a fence-epoch bump, so their agents reject any
  // command issued for the old incarnation of this placement.
  auto recall_gangs_on = [&](NodeId sus, const char* reason) {
    for (auto it = runtime.running().begin();
         it != runtime.running().end();) {
      const auto& [victim, run] = *it++;  // Kill() below erases `victim`
      if (std::find(run.nodes.begin(), run.nodes.end(), sus) ==
          run.nodes.end()) {
        continue;
      }
      if (prov.enabled()) {
        prov.Record({.kind = ProvKind::kSuspected,
                     .time = now,
                     .job = victim,
                     .label = reason,
                     .detail = JsonObj()
                                   .Field("node", sus)
                                   .Field("gang_nodes", static_cast<int64_t>(
                                                            run.nodes.size()))
                                   .str()});
      }
      auto dead = broken.find(victim);
      std::vector<NodeId> killed;
      std::vector<NodeId> orphaned;
      for (NodeId member : run.nodes) {
        if (dead != broken.end() && dead->second.count(member) != 0) {
          continue;  // copy died with its node; nothing to kill or release
        }
        if (comms.node_up(member) && comms.LinkUp(member, now) &&
            comms.DeliverCommand(member, now)) {
          killed.push_back(member);
        } else {
          orphaned.push_back(member);
        }
      }
      if (!orphaned.empty()) {
        OrphanJob orphan;
        orphan.run = run;
        orphan.run.nodes = orphaned;
        orphan.run.counts = counts_of(orphaned);
        orphan.intact = killed.empty() && dead == broken.end();
        for (NodeId member : orphaned) {
          fence_node(member);
        }
        orphans[victim] = std::move(orphan);
      }
      broken.erase(victim);
      runtime.Kill(victim, sus, now, std::move(killed));
    }
  };

  // Lossy-mode reconciliation for a reachable node whose agent epoch lags
  // its fence epoch: each orphan copy on it is either adopted back wholesale
  // (survivor keeps the slot — the copy is intact, the job was never
  // re-placed, and every member is reachable) or fenced (stale tasks
  // killed, agents advance to the fence epoch). Undeliverable commands
  // leave the orphan in place: the node stays reconcilable and is retried
  // next cycle.
  auto reconcile_node = [&](NodeId node) {
    bool fully_reconciled = true;
    for (auto it = orphans.begin(); it != orphans.end();) {
      OrphanJob& orphan = it->second;
      if (std::find(orphan.run.nodes.begin(), orphan.run.nodes.end(), node) ==
          orphan.run.nodes.end()) {
        ++it;
        continue;
      }
      JobId id = it->first;
      bool adoptable = orphan.intact && runtime.state(runtime.index_of(id)) ==
                                            JobState::kPending;
      if (adoptable) {
        for (NodeId member : orphan.run.nodes) {
          if (!comms.node_up(member) || !comms.LinkUp(member, now)) {
            adoptable = false;
            break;
          }
        }
      }
      if (adoptable) {
        bool delivered = true;
        for (NodeId member : orphan.run.nodes) {
          if (!comms.DeliverCommand(member, now)) {
            delivered = false;
            break;
          }
        }
        if (!delivered) {
          fully_reconciled = false;
          ++it;
          continue;  // retry next cycle; epochs unchanged
        }
        RunningJob run = std::move(orphan.run);
        it = orphans.erase(it);
        for (NodeId member : run.nodes) {
          comms.AgentAdoptEpoch(member);
        }
        ++metrics.orphans_adopted;
        runtime.Adopt(id, std::move(run), now, node);
      } else {
        std::vector<NodeId> fenced;
        std::vector<NodeId> remaining;
        for (NodeId member : orphan.run.nodes) {
          if (comms.node_up(member) && comms.LinkUp(member, now) &&
              comms.DeliverCommand(member, now)) {
            fenced.push_back(member);
            comms.AgentAdoptEpoch(member);
          } else {
            remaining.push_back(member);
          }
        }
        if (!fenced.empty()) {
          ledger.Release(fenced);
          metrics.fenced_tasks += static_cast<int>(fenced.size());
          orphan.intact = false;
          if (prov.enabled()) {
            prov.Record(
                {.kind = ProvKind::kFenced,
                 .time = now,
                 .job = id,
                 .value = static_cast<double>(fenced.size()),
                 .label = "stale-epoch",
                 .detail = JsonObj()
                               .Field("node", node)
                               .Field("remaining",
                                      static_cast<int64_t>(remaining.size()))
                               .str()});
          }
        }
        if (remaining.empty()) {
          it = orphans.erase(it);
        } else {
          fully_reconciled = false;
          orphan.run.nodes = std::move(remaining);
          orphan.run.counts = counts_of(orphan.run.nodes);
          ++it;
        }
      }
    }
    if (fully_reconciled) {
      // Nothing stale remains on this node: its agent accepts the current
      // epoch, clearing the reconcilable flag.
      comms.AgentAdoptEpoch(node);
    }
  };

  // The §15 belief invariant, checked at every cycle boundary under a lossy
  // control plane: every occupied ledger node is owned by exactly one copy
  // (believed-running gang, orphan, or failed-node hold), and no node is
  // claimed twice. Double-occupancy or a lost slot is a bug, never a
  // consequence of message loss.
  auto check_belief_invariants = [&]() {
    std::vector<int> owners(cluster_.num_nodes(), 0);
    for (const auto& [id, run] : runtime.running()) {
      auto dead = broken.find(id);
      for (NodeId member : run.nodes) {
        if (dead != broken.end() && dead->second.count(member) != 0) {
          continue;  // believed-held only; the copy died with its node
        }
        ++owners[member];
      }
    }
    for (const auto& [id, orphan] : orphans) {
      for (NodeId member : orphan.run.nodes) {
        ++owners[member];
      }
    }
    for (const auto& [node, recover_at] : failed_nodes) {
      ++owners[node];
    }
    for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
      const bool occupied = !ledger.is_free(node);
      if (owners[node] > 1 || occupied != (owners[node] == 1)) {
        ++metrics.belief_invariant_violations;
        TETRI_LOG(kError) << "belief invariant violated at t=" << now
                          << ": node " << node << " has " << owners[node]
                          << " owners, ledger "
                          << (occupied ? "occupied" : "free");
      }
    }
  };

  // The policy's view, reused across cycles.
  std::vector<const Job*> pending;
  std::vector<RunningHold> holds;
  while (runtime.open_jobs() > 0 && now <= config_.max_time) {
    SimTime next_event = std::min(next_cycle, runtime.next_completion());
    if (next_arrival < n) {
      next_event = std::min(next_event, jobs_[next_arrival].submit);
    }
    if (next_failure < failures.size()) {
      next_event = std::min(next_event, failures[next_failure].at);
    }
    if (!recoveries.empty()) {
      next_event = std::min(next_event, recoveries.top().first);
    }
    if (next_straggler < stragglers.size()) {
      next_event = std::min(next_event, stragglers[next_straggler].at);
    }
    if (!straggler_ends.empty()) {
      next_event = std::min(next_event, straggler_ends.top());
    }
    now = next_event;
    advance_to(now);

    // Arrivals: the runtime's job table is in submit order.
    while (next_arrival < n && jobs_[next_arrival].submit <= now) {
      runtime.Arrive(next_arrival++, now);
    }
    runtime.CompleteUntil(now);

    // Node recoveries before failures: a node recovering at exactly the
    // instant a later failure entry targets it must be back in circulation
    // first, or that failure would be silently skipped as a duplicate.
    while (!recoveries.empty() && recoveries.top().first <= now) {
      auto [time, node] = recoveries.top();
      recoveries.pop();
      ledger.ReturnSpecific(node);
      runtime.Trace({now, TraceEventKind::kNodeRecover, -1, node});
      sim_ins.node_recoveries->Increment();
      failed_nodes.erase(node);
      if (lossy) {
        // The agent reboots with a bumped incarnation; its heartbeats
        // resume from here and the detector notices on its next pass.
        comms.NodeUp(node, now);
      }
    }

    // Node failures: kill whatever ran on the node, requeue the gang under
    // the retry policy, and take the node out of circulation until recovery.
    while (next_failure < failures.size() &&
           failures[next_failure].at <= now) {
      const NodeFailure& failure = failures[next_failure++];
      if (failure.node < 0 || failure.node >= cluster_.num_nodes() ||
          failed_nodes.count(failure.node) != 0) {
        continue;
      }
      if (!ledger.is_free(failure.node) && !lossy) {
        // Oracle path: the scheduler learns of the failure instantly and
        // kills + requeues the whole gang on the spot.
        for (const auto& [id, run] : runtime.running()) {
          if (std::find(run.nodes.begin(), run.nodes.end(), failure.node) !=
              run.nodes.end()) {
            runtime.Kill(id, failure.node, now, run.nodes);
            break;
          }
        }
      } else if (!ledger.is_free(failure.node)) {
        // Lossy path: the scheduler notices nothing yet. The copy on the
        // node dies with it; the rest of the gang keeps occupying its
        // nodes. A believed-running gang becomes `broken` (its completion
        // is cancelled — a gang with a dead member never finishes) and is
        // recalled only once the detector suspects the node or spots its
        // reboot. An orphan copy just shrinks.
        bool found = false;
        for (const auto& [id, run] : runtime.running()) {
          if (std::find(run.nodes.begin(), run.nodes.end(), failure.node) ==
              run.nodes.end()) {
            continue;
          }
          auto dead = broken.find(id);
          if (dead != broken.end() && dead->second.count(failure.node) != 0) {
            continue;  // this gang's copy there died in an earlier incarnation
          }
          broken[id].insert(failure.node);
          ledger.Release({failure.node});
          runtime.find_running(id)->actual_end = kTimeNever;
          found = true;
          break;
        }
        if (!found) {
          for (auto it = orphans.begin(); it != orphans.end(); ++it) {
            auto& run = it->second.run;
            auto pos =
                std::find(run.nodes.begin(), run.nodes.end(), failure.node);
            if (pos == run.nodes.end()) {
              continue;
            }
            run.nodes.erase(pos);
            ledger.Release({failure.node});
            it->second.intact = false;
            if (run.nodes.empty()) {
              orphans.erase(it);
            } else {
              run.counts = counts_of(run.nodes);
            }
            break;
          }
        }
      }
      ledger.TakeSpecific(failure.node);
      runtime.Trace({now, TraceEventKind::kNodeFail, -1, failure.node});
      sim_ins.node_failures->Increment();
      failed_nodes[failure.node] = failure.recover_at;
      if (failure.recover_at != kTimeNever) {
        recoveries.push({failure.recover_at, failure.node});
      }
      if (lossy) {
        comms.NodeDown(failure.node, now);
      }
    }

    // Fail-slow episodes: expire finished ones, then activate those due.
    if (!straggler_ends.empty() && straggler_ends.top() <= now) {
      while (!straggler_ends.empty() && straggler_ends.top() <= now) {
        straggler_ends.pop();
      }
      for (auto it = active_stragglers.begin();
           it != active_stragglers.end();) {
        if (it->recover_at <= now) {
          runtime.Trace({now, TraceEventKind::kNodeSlowRecover, -1, it->node});
          it = active_stragglers.erase(it);
        } else {
          ++it;
        }
      }
    }
    while (next_straggler < stragglers.size() &&
           stragglers[next_straggler].at <= now) {
      const StragglerEvent& event = stragglers[next_straggler++];
      if (event.node < 0 || event.node >= cluster_.num_nodes() ||
          event.recover_at <= event.at || event.slowdown <= 1.0) {
        continue;
      }
      active_stragglers.push_back(event);
      straggler_ends.push(event.recover_at);
      sim_ins.stragglers->Increment();
      runtime.Trace({now, TraceEventKind::kNodeSlow, -1, event.node, 0,
             event.slowdown});
    }

    if (now < next_cycle) {
      continue;
    }
    next_cycle = now + config_.cycle_period;

    // At most one injected scheduler crash per cycle, at its scheduled
    // phase. A kBeforeCycle crash loses nothing uncommitted, so recovery
    // runs first and the cycle then proceeds on the rebuilt scheduler.
    const SchedulerCrashEvent* crash = nullptr;
    if (persist != nullptr && next_crash < crashes.size() &&
        crashes[next_crash].at <= now) {
      crash = &crashes[next_crash++];
      if (crash->phase == CrashPhase::kBeforeCycle) {
        recover_scheduler(crash->phase);
        crash = nullptr;
      }
    }

    // Detector pass (DESIGN.md §15): fold heartbeat arrivals up to now,
    // apply belief transitions, then act on them — recall believed-running
    // gangs from nodes the scheduler just gave up on (or that silently
    // rebooted out from under their tasks), and reconcile reachable nodes
    // whose agents lag their fence epoch.
    if (lossy) {
      ++cycle_count;
      ControlPlane::Verdict verdict = comms.Evaluate(now, cycle_count);
      for (NodeId node : verdict.newly_suspect) {
        recall_gangs_on(node, "suspected");
      }
      for (NodeId node : verdict.newly_dead) {
        recall_gangs_on(node, "dead");  // idempotent if recalled at suspicion
      }
      for (NodeId node : verdict.rebooted) {
        recall_gangs_on(node, "rebooted");
      }
      for (NodeId node : verdict.reconcilable) {
        reconcile_node(node);
      }
    }

    // Build the policy's view. Failed nodes appear to policies as
    // unpreemptible holds lasting until their recovery time. Under a lossy
    // control plane the scheduler cannot see ground truth: the holds come
    // from the detector's believed-down set instead (no recovery ETA — a
    // suspicion carries none), so the policy may plan onto capacity that is
    // actually gone (bounced at commit) and may ignore capacity that is
    // actually fine.
    pending.clear();
    holds.clear();
    if (!lossy) {
      for (const auto& [node, recover_at] : failed_nodes) {
        holds.push_back(node_hold(node, recover_at));
      }
    } else {
      const std::vector<char>& down = comms.believed_down_mask();
      for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
        if (down[node]) {
          holds.push_back(node_hold(node, kTimeNever));
        }
      }
    }
    runtime.BuildView(now, &pending, &holds);

    try {
      // In-OnCycle crash phases fire from the span hook: the first entry
      // into the targeted phase's span on this thread throws.
      const char* crash_span =
          crash != nullptr ? CrashPhaseSpanName(crash->phase) : nullptr;
      if (crash_span != nullptr) {
        span_internal::ArmSpanCrashHook(crash_span,
                                        [] { throw SchedulerCrashSignal{}; });
      }
      SchedulerPolicy::Decision decision =
          policy->OnCycle(now, pending, holds);
      if (crash_span != nullptr && span_internal::SpanCrashHookArmed()) {
        // The targeted phase never ran this cycle (the degradation ladder
        // can skip phases); the crash still fires, before the commit.
        span_internal::DisarmSpanCrashHook();
        throw SchedulerCrashSignal{};
      }
      runtime.Trace({now, TraceEventKind::kCycle, -1, -1,
             static_cast<int32_t>(pending.size()),
             decision.stats.cycle_seconds * 1e3});
      sim_ins.cycles->Increment();
      sim_ins.pending_depth->Observe(static_cast<double>(pending.size()));
      metrics.cycle_latency_ms.Add(decision.stats.cycle_seconds * 1e3);
      metrics.solver_latency_ms.Add(decision.stats.solver_seconds * 1e3);
      if (decision.stats.milp_vars > 0) {
        metrics.milp_vars.Add(decision.stats.milp_vars);
        metrics.milp_components.Add(decision.stats.milp_components);
      }
      if (decision.stats.used_fallback) {
        ++metrics.fallback_cycles;
        sim_ins.fallback_cycles->Increment();
        // `count` carries the degradation-ladder rung that produced the plan
        // (1 = greedy first-fit, 2 = skip), not a placement count.
        runtime.Trace({now, TraceEventKind::kFallback, -1, -1,
               decision.stats.ladder_rung});
      }
      metrics.validator_violations += decision.stats.validator_rejects;
      if (decision.stats.budget_blown) {
        ++metrics.budget_blown_cycles;
      }
      if (decision.stats.plan_ahead_adapted != 0) {
        ++metrics.plan_ahead_adaptations;
      }
      metrics.certifier_rejects += decision.stats.certifier_rejects;

      hook.crash = crash;
      runtime.Commit(now, decision, *policy, hook);
    } catch (const SchedulerCrashSignal&) {
      // The cycle died mid-flight. Ground-truth mutations that already
      // landed stand; recovery rebuilds the RM view around them, and the
      // unapplied remainder of this cycle's plan is replanned next period.
      recover_scheduler(crash != nullptr ? crash->phase
                                         : CrashPhase::kBeforeCycle);
    }
    hook.crash = nullptr;
    if (lossy) {
      check_belief_invariants();
    }
  }

  if (now > config_.max_time) {
    TETRI_LOG(kWarning) << "simulation hit max_time with "
                        << runtime.open_jobs() << " jobs outstanding";
  }
  const RuntimeCounters& rc = runtime.counters();
  metrics.preemptions = rc.preemptions;
  metrics.failure_kills = rc.failure_kills;
  metrics.retries_exhausted = rc.retries_exhausted;
  metrics.readmissions = rc.readmissions;
  metrics.reservations_dropped = rc.reservations_dropped;
  metrics.stale_placement_bounces = rc.stale_placement_bounces;
  metrics.straggler_slowed_starts = rc.straggler_slowed_starts;
  metrics.recovery_adoptions = rc.recovery_adoptions;
  metrics.recovery_mismatches = rc.recovery_mismatches;
  metrics.recovery_latency = rc.recovery_latency;
  metrics.validator_violations += rc.validator_violations;
  metrics.outcomes = runtime.TakeOutcomes();
  sim_ins.validator_violations->Increment(metrics.validator_violations);
  sim_ins.failure_kills->Increment(rc.failure_kills);
  sim_ins.preemptions->Increment(rc.preemptions);
  sim_ins.retries_exhausted->Increment(rc.retries_exhausted);
  sim_ins.jobs_completed->Increment(runtime.count(JobState::kCompleted));
  sim_ins.jobs_dropped->Increment(runtime.count(JobState::kDropped));
  if (lossy) {
    const ControlPlane::Counters& cc = comms.counters();
    metrics.suspicions = static_cast<int>(cc.suspicions);
    metrics.false_suspicions = static_cast<int>(cc.false_suspicions);
    metrics.dead_declared = static_cast<int>(cc.dead_declared);
    metrics.heartbeats_dropped = cc.heartbeats_dropped;
    metrics.commands_dropped = cc.commands_dropped;
    metrics.stale_command_rejects = cc.stale_command_rejects;
    for (double latency : comms.detection_latencies()) {
      metrics.detection_latency.Add(latency);
    }
    sim_ins.detector_suspicions->Increment(cc.suspicions);
    sim_ins.detector_false_suspicions->Increment(cc.false_suspicions);
    sim_ins.detector_dead_declared->Increment(cc.dead_declared);
    sim_ins.detector_fenced_tasks->Increment(metrics.fenced_tasks);
    sim_ins.detector_orphans_adopted->Increment(metrics.orphans_adopted);
    sim_ins.detector_stale_bounces->Increment(
        metrics.stale_placement_bounces);
    sim_ins.detector_heartbeats_dropped->Increment(cc.heartbeats_dropped);
    sim_ins.detector_commands_dropped->Increment(cc.commands_dropped);
  }
  metrics.makespan = now;
  metrics.utilization =
      metrics.makespan > 0
          ? busy_node_seconds / (static_cast<double>(cluster_.num_nodes()) *
                                 static_cast<double>(metrics.makespan))
          : 0.0;

  if (prov.enabled()) {
    // SLO-miss attribution (DESIGN.md §14): every SLO job that failed its
    // deadline gets a closing kSloMiss record whose label is the attributed
    // root cause and whose detail carries the evidence counts behind the
    // verdict — the machine-checkable answer `tetrisched_explain
    // --slo-misses` renders.
    for (const JobOutcome& outcome : metrics.outcomes) {
      if (!outcome.is_slo() || outcome.MetDeadline()) {
        continue;
      }
      ProvenanceRecord record;
      record.kind = ProvKind::kSloMiss;
      record.time = now;
      record.job = outcome.id;
      std::string evidence;
      record.label = ToString(prov.AttributeSloMiss(outcome.id, &evidence));
      record.detail = std::move(evidence);
      record.value = outcome.completed
                         ? static_cast<double>(outcome.completion -
                                               outcome.deadline)
                         : -1.0;  // never finished
      prov.Record(std::move(record));
    }
  }

  if (exporting) {
    UpdateProcessMetrics();
    if (!config_.metrics_json_path.empty()) {
      WriteFileOrWarn(config_.metrics_json_path, GlobalMetrics().ToJson());
    }
    if (!config_.metrics_prom_path.empty()) {
      WriteFileOrWarn(config_.metrics_prom_path,
                      GlobalMetrics().ToPrometheusText());
    }
    if (!config_.trace_json_path.empty()) {
      WriteFileOrWarn(config_.trace_json_path,
                      SpanCollector::Global().ToChromeTraceJson());
    }
    SetObservabilityEnabled(prev_observability);
  }
  if (prov_on && !config_.provenance_jsonl_path.empty()) {
    prov.ExportJsonl(config_.provenance_jsonl_path);
  }
  prov.SetEnabled(prev_provenance);
  return metrics;
}

namespace {

// Attainment over outcomes matching `match`: fraction completed by deadline.
template <typename Predicate>
double Attainment(const std::vector<JobOutcome>& outcomes, Predicate match) {
  int total = 0;
  int met = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (!match(outcome)) {
      continue;
    }
    ++total;
    if (outcome.MetDeadline()) {
      ++met;
    }
  }
  return total > 0 ? static_cast<double>(met) / total : 0.0;
}

}  // namespace

double SimMetrics::AcceptedSloAttainment() const {
  return Attainment(outcomes, [](const JobOutcome& o) {
    return o.slo_class == SloClass::kSloAccepted;
  });
}

double SimMetrics::TotalSloAttainment() const {
  return Attainment(outcomes, [](const JobOutcome& o) { return o.is_slo(); });
}

double SimMetrics::UnreservedSloAttainment() const {
  return Attainment(outcomes, [](const JobOutcome& o) {
    return o.slo_class == SloClass::kSloUnreserved;
  });
}

double SimMetrics::MeanBestEffortLatency() const {
  double total = 0.0;
  int count = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.is_slo() || !outcome.completed) {
      continue;
    }
    total += static_cast<double>(outcome.completion - outcome.submit);
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

int SimMetrics::CountJobs(SloClass slo_class) const {
  int count = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.slo_class == slo_class) {
      ++count;
    }
  }
  return count;
}

std::string SimMetrics::Summary() const {
  std::ostringstream out;
  out << "SLO attainment: total " << FormatPercent(TotalSloAttainment(), 1.0)
      << ", accepted " << FormatPercent(AcceptedSloAttainment(), 1.0)
      << ", w/o reservation "
      << FormatPercent(UnreservedSloAttainment(), 1.0)
      << "; BE mean latency " << MeanBestEffortLatency()
      << " s; utilization " << FormatPercent(utilization, 1.0)
      << "; makespan " << makespan << " s";
  if (failure_kills > 0 || fallback_cycles > 0 || validator_violations > 0) {
    out << "; churn: " << failure_kills << " kills, " << retries_exhausted
        << " retry-exhausted, " << readmissions << " readmissions, "
        << reservations_dropped << " reservations dropped, "
        << fallback_cycles << " fallback cycles, " << validator_violations
        << " validator violations";
  }
  if (budget_blown_cycles > 0 || plan_ahead_adaptations > 0 ||
      certifier_rejects > 0) {
    out << "; budget: " << budget_blown_cycles << " blown cycles, "
        << plan_ahead_adaptations << " plan-ahead adaptations, "
        << certifier_rejects << " certifier rejects";
  }
  if (suspicions > 0 || stale_placement_bounces > 0 || fenced_tasks > 0 ||
      belief_invariant_violations > 0) {
    out << "; detector: " << suspicions << " suspicions ("
        << false_suspicions << " false), " << dead_declared << " dead, "
        << fenced_tasks << " fenced tasks, " << orphans_adopted
        << " orphans adopted, " << stale_placement_bounces
        << " stale bounces, " << belief_invariant_violations
        << " belief violations";
    if (detection_latency.count() > 0) {
      out << ", mean detection " << detection_latency.Mean() << " s";
    }
  }
  if (scheduler_crashes > 0) {
    out << "; crashes: " << scheduler_crashes << " injected, " << recoveries
        << " recoveries, " << journal_replayed << " records replayed, "
        << journal_dropped << " dropped, " << recovery_adoptions
        << " adoptions, " << recovery_mismatches << " mismatches";
  }
  return out.str();
}

}  // namespace tetrisched
