#include "src/runtime/cluster_runtime.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/obs/provenance.h"

namespace tetrisched {

const char* ToString(JobState state) {
  static constexpr const char* kNames[kNumJobStates] = {
      "queued", "pending", "running", "completed", "dropped", "cancelled"};
  return kNames[static_cast<int>(state)];
}

bool IsPreferredPlacement(const Cluster& cluster, const Job& job,
                          const std::map<PartitionId, int>& counts) {
  switch (job.type) {
    case JobType::kUnconstrained:
      return true;
    case JobType::kGpu:
      for (const auto& [partition, count] : counts) {
        if (count > 0 && !cluster.partition(partition).has_gpu) {
          return false;
        }
      }
      return true;
    case JobType::kMpi: {
      RackId rack = -1;
      for (const auto& [partition, count] : counts) {
        if (count == 0) {
          continue;
        }
        RackId r = cluster.partition(partition).rack;
        if (rack == -1) {
          rack = r;
        } else if (rack != r) {
          return false;
        }
      }
      return true;
    }
    case JobType::kAvailability:
      return true;
    case JobType::kDataLocal:
      for (const auto& [partition, count] : counts) {
        if (count > 0 &&
            std::find(job.preferred_partitions.begin(),
                      job.preferred_partitions.end(),
                      partition) == job.preferred_partitions.end()) {
          return false;
        }
      }
      return true;
  }
  return true;
}

ReservationDecision Reserve(RayonAdmission& rayon, const Job& job,
                            SimTime window_start) {
  RdlRequest request;
  request.requester = job.id;
  request.k = job.k;
  request.duration = job.EstimatedRuntime(/*preferred=*/true);
  request.window_start = window_start;
  request.window_end = job.deadline;
  return rayon.Submit(request);
}

int ApplyAdmission(const Cluster& cluster, std::vector<Job>& jobs,
                   RayonAdmission* rayon_in) {
  RayonAdmission local(cluster.num_nodes());
  RayonAdmission& rayon = rayon_in != nullptr ? *rayon_in : local;
  int accepted = 0;
  for (Job& job : jobs) {
    if (!job.wants_reservation) {
      job.slo_class = SloClass::kBestEffort;
      continue;
    }
    ReservationDecision decision = Reserve(rayon, job, job.submit);
    if (decision.accepted) {
      job.slo_class = SloClass::kSloAccepted;
      job.reservation = decision.interval;
      ++accepted;
    } else {
      job.slo_class = SloClass::kSloUnreserved;
    }
  }
  return accepted;
}

LaunchHook::Verdict LaunchHook::Acquire(SimTime /*now*/,
                                        const Placement& placement,
                                        NodeLedger& ledger,
                                        std::vector<NodeId>* nodes,
                                        const char** why) {
  for (const auto& [partition, count] : placement.counts) {
    if (count > ledger.free_in_partition(partition)) {
      *why = "exceeds free partition capacity";
      return Verdict::kRefused;
    }
  }
  for (const auto& [partition, count] : placement.counts) {
    std::vector<NodeId> taken = ledger.Acquire(partition, count);
    nodes->insert(nodes->end(), taken.begin(), taken.end());
  }
  return Verdict::kLaunched;
}

namespace {

DurableEvent Event(DurableEventKind kind, SimTime time, JobId job) {
  DurableEvent event;
  event.kind = kind;
  event.time = time;
  event.job = job;
  return event;
}

// A journaled Rayon decision (kRayonAdmit / kRayonRelease / kRayonReject).
DurableEvent RayonEvent(DurableEventKind kind, SimTime time, const Job& job,
                        TimeRange interval) {
  DurableEvent event = Event(kind, time, job.id);
  event.k = job.k;
  event.interval = interval;
  return event;
}

DurableEvent SloUpdate(SimTime time, const Job& job) {
  DurableEvent event = Event(DurableEventKind::kSloUpdate, time, job.id);
  event.slo_class = static_cast<uint8_t>(job.slo_class);
  event.interval = job.reservation;
  return event;
}

GangRecord ToGang(JobId job, const std::map<PartitionId, int>& counts,
                  SimTime start, SimTime expected_end) {
  return {job, counts, start, expected_end, expected_end - start};
}

}  // namespace

ClusterRuntime::ClusterRuntime(const Cluster& cluster, RuntimeParams params)
    : cluster_(cluster), params_(params), ledger_(cluster) {}

int ClusterRuntime::AddJob(Job job) {
  const int i = num_jobs();
  JobOutcome outcome;
  outcome.id = job.id;
  outcome.slo_class = job.slo_class;
  outcome.type = job.type;
  outcome.submit = job.submit;
  outcome.deadline = job.deadline;
  index_[job.id] = i;
  jobs_.push_back(std::move(job));
  slots_.emplace_back();
  outcomes_.push_back(std::move(outcome));
  ++counts_[static_cast<int>(JobState::kQueued)];
  return i;
}

int ClusterRuntime::index_of(JobId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? -1 : it->second;
}

RunningJob* ClusterRuntime::find_running(JobId id) {
  auto it = running_.find(id);
  return it == running_.end() ? nullptr : &it->second;
}

void ClusterRuntime::SetState(int i, JobState state) {
  Slot& slot = slots_[i];
  --counts_[static_cast<int>(slot.state)];
  ++counts_[static_cast<int>(state)];
  slot.state = state;
  if (state == JobState::kPending && !slot.listed) {
    pending_list_.insert(
        std::upper_bound(pending_list_.begin(), pending_list_.end(), i), i);
    slot.listed = true;
  }
}

void ClusterRuntime::Journal(const DurableEvent& event) {
  if (params_.persist == nullptr) {
    return;
  }
  params_.persist->Append(event);
  ApplyEvent(image_, event);
  TrimImage();
}

void ClusterRuntime::TrimImage() {
  // Completions only retrain the estimator on recovery; without learning
  // nothing reads them, and each snapshot would re-encode every one.
  if (!params_.learn_estimates) {
    image_.completions.clear();
  }
}

void ClusterRuntime::Trace(const TraceEvent& event) {
  if (params_.trace != nullptr) {
    params_.trace->Record(event);
  }
}

void ClusterRuntime::Arrive(int i, SimTime now) {
  SetState(i, JobState::kPending);
  const Job& job = jobs_[i];
  Trace({now, TraceEventKind::kSubmit, job.id});
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  if (prov.enabled()) {
    prov.Record({.kind = ProvKind::kArrival,
                 .time = now,
                 .job = job.id,
                 .value = static_cast<double>(job.k),
                 .label = ToString(job.slo_class),
                 .detail = JsonObj()
                               .Field("k", job.k)
                               .Field("deadline",
                                      static_cast<int64_t>(job.deadline))
                               .str()});
  }
}

void ClusterRuntime::Admit(int i, SimTime now) {
  Job& job = jobs_[i];
  if (job.wants_reservation && params_.rayon != nullptr) {
    ReservationDecision decision = Reserve(*params_.rayon, job, now);
    if (decision.accepted) {
      job.slo_class = SloClass::kSloAccepted;
      job.reservation = decision.interval;
    } else {
      job.slo_class = SloClass::kSloUnreserved;
    }
    Journal(RayonEvent(decision.accepted ? DurableEventKind::kRayonAdmit
                                         : DurableEventKind::kRayonReject,
                       now, job, decision.interval));
  } else if (job.deadline != kTimeNever) {
    job.slo_class = SloClass::kSloUnreserved;
  }
  outcomes_[i].slo_class = job.slo_class;
  if (job.is_slo()) {
    Journal(SloUpdate(now, job));
  }
  Arrive(i, now);
}

void ClusterRuntime::CompleteUntil(SimTime now) {
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  while (!completions_.empty() && completions_.top().first <= now) {
    auto [time, id] = completions_.top();
    completions_.pop();
    auto it = running_.find(id);
    if (it == running_.end() || it->second.actual_end != time) {
      continue;  // stale entry (the gang was preempted, killed or cancelled)
    }
    const int i = it->second.index;
    const int released = static_cast<int>(it->second.nodes.size());
    const SimDuration runtime = time - it->second.start;
    const Job& job = jobs_[i];
    JobOutcome& outcome = outcomes_[i];
    ledger_.Release(it->second.nodes);
    running_.erase(it);
    if (params_.learn_estimates) {
      estimator_.Observe(job, outcome.preferred, runtime);
    }
    DurableEvent complete = Event(DurableEventKind::kGangComplete, time, id);
    complete.preferred = outcome.preferred;
    complete.runtime = runtime;
    Journal(complete);
    if (prov.enabled()) {
      prov.Record({.kind = ProvKind::kCompleted,
                   .time = time,
                   .job = id,
                   .value = static_cast<double>(runtime),
                   .label = time <= job.deadline ? "met" : "late",
                   .detail = JsonObj()
                                 .Field("runtime", int64_t{runtime})
                                 .Field("deadline", int64_t{job.deadline})
                                 .Field("preferred", outcome.preferred)
                                 .str()});
    }
    SetState(i, JobState::kCompleted);
    slots_[i].end = time;
    outcome.completed = true;
    outcome.completion = time;
    Trace({time, TraceEventKind::kComplete, id, -1, released});
  }
}

void ClusterRuntime::Drop(int i, SimTime now, JobState state,
                          const char* why, double value, std::string detail) {
  const JobId id = jobs_[i].id;
  SetState(i, state);
  slots_[i].end = now;
  outcomes_[i].dropped = true;
  Trace({now, TraceEventKind::kDrop, id});
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  if (prov.enabled()) {
    prov.Record({.kind = ProvKind::kDropped,
                 .time = now,
                 .job = id,
                 .value = value,
                 .label = why,
                 .detail = std::move(detail)});
  }
  Journal(Event(DurableEventKind::kJobDropped, now, id));
}

bool ClusterRuntime::Cancel(int i, SimTime now) {
  const JobState from = state(i);
  if (from != JobState::kQueued && from != JobState::kPending &&
      from != JobState::kRunning) {
    return false;  // already finished
  }
  if (from == JobState::kRunning) {
    auto it = running_.find(jobs_[i].id);
    ledger_.Release(it->second.nodes);
    running_.erase(it);
  }
  Drop(i, now, JobState::kCancelled, "client cancel");
  return true;
}

void ClusterRuntime::Kill(JobId victim, NodeId cause, SimTime now,
                          std::vector<NodeId> released) {
  auto it = running_.find(victim);
  const int i = it->second.index;
  Trace({now, TraceEventKind::kFailureKill, victim, cause,
         static_cast<int32_t>(it->second.nodes.size())});
  running_.erase(it);
  if (!released.empty()) {
    ledger_.Release(released);
  }
  ++counters_.failure_kills;
  JobOutcome& outcome = outcomes_[i];
  ++outcome.retries;
  if (outcome.retries > params_.max_retries) {
    // Retry budget exhausted: drop instead of requeueing.
    ++counters_.retries_exhausted;
    Drop(i, now, JobState::kDropped, "retries-exhausted",
         static_cast<double>(outcome.retries),
         JsonObj()
             .Field("node", cause)
             .Field("retries", outcome.retries)
             .str());
    return;
  }
  SetState(i, JobState::kPending);  // the gang restarts from scratch
  Slot& slot = slots_[i];
  slot.last_kill = now;
  SimDuration backoff = 0;
  if (params_.retry_backoff > 0) {
    backoff = std::min(params_.retry_backoff_cap,
                       params_.retry_backoff
                           << std::min(outcome.retries - 1, 30));
  }
  slot.eligible_at = now + backoff;
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  if (prov.enabled()) {
    prov.Record(
        {.kind = ProvKind::kFailureKill,
         .time = now,
         .job = victim,
         .value = static_cast<double>(outcome.retries),
         .label = "node-failure",
         .detail =
             JsonObj()
                 .Field("node", cause)
                 .Field("retries", outcome.retries)
                 .Field("eligible_at", static_cast<int64_t>(slot.eligible_at))
                 .str()});
  }
  DurableEvent kill = Event(DurableEventKind::kGangKill, now, victim);
  kill.retries = outcome.retries;
  kill.eligible_at = slot.eligible_at;
  Journal(kill);

  // Shrink-or-drop re-admission: an accepted-SLO gang whose reserved slot
  // can no longer start on time gets one shot at a new reservation over the
  // remaining window; on rejection it is downgraded to unreserved (it keeps
  // running best-effort-style toward its deadline).
  Job& job = jobs_[i];
  if (params_.rayon == nullptr || job.slo_class != SloClass::kSloAccepted ||
      job.reservation.start >= slot.eligible_at) {
    return;
  }
  params_.rayon->Release(job.reservation, job.k);
  Journal(RayonEvent(DurableEventKind::kRayonRelease, now, job,
                     job.reservation));
  ReservationDecision redo = Reserve(*params_.rayon, job, slot.eligible_at);
  if (redo.accepted) {
    job.reservation = redo.interval;
    ++outcome.readmissions;
    ++counters_.readmissions;
  } else {
    job.slo_class = SloClass::kSloUnreserved;
    job.reservation = {0, 0};
    outcome.reservation_dropped = true;
    ++counters_.reservations_dropped;
  }
  Journal(RayonEvent(redo.accepted ? DurableEventKind::kRayonAdmit
                                   : DurableEventKind::kRayonReject,
                     now, job, redo.interval));
  Journal(SloUpdate(now, job));
}

void ClusterRuntime::Launch(int i, RunningJob run, SimTime now) {
  const JobId id = jobs_[i].id;
  run.index = i;
  completions_.push({run.actual_end, id});
  running_[id] = std::move(run);
  SetState(i, JobState::kRunning);
  Slot& slot = slots_[i];
  if (slot.last_kill >= 0) {
    SimDuration gap = now - slot.last_kill;
    outcomes_[i].recovery_latency += gap;
    counters_.recovery_latency.Add(static_cast<double>(gap));
    slot.last_kill = -1;
  }
}

SimDuration ClusterRuntime::Start(int i, RunningJob run, double slow,
                                  SimTime now) {
  // Ground truth: the runtime follows the *actual* placement quality.
  const Job& job = jobs_[i];
  const bool preferred = IsPreferredPlacement(cluster_, job, run.counts);
  SimDuration actual = job.ActualRuntime(preferred);
  if (slow > 1.0) {
    actual = static_cast<SimDuration>(
        std::llround(static_cast<double>(actual) * slow));
    ++counters_.straggler_slowed_starts;
  }
  run.actual_end = run.start + actual;
  JobOutcome& outcome = outcomes_[i];
  outcome.started = true;
  if (outcome.start_time < 0) {
    outcome.start_time = run.start;
  }
  outcome.preferred = preferred;
  outcome.placement = run.counts;
  Launch(i, std::move(run), now);
  return actual;
}

bool ClusterRuntime::InRange(const std::map<PartitionId, int>& counts) const {
  for (const auto& [partition, count] : counts) {
    if (partition < 0 || partition >= cluster_.num_partitions() || count < 0) {
      return false;
    }
  }
  return true;
}

void ClusterRuntime::Adopt(JobId id, RunningJob run, SimTime now,
                           NodeId node) {
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  if (prov.enabled()) {
    prov.Record({.kind = ProvKind::kReconciled,
                 .time = now,
                 .job = id,
                 .value = static_cast<double>(run.nodes.size()),
                 .label = "adopted",
                 .detail = JsonObj()
                               .Field("node", node)
                               .Field("start", static_cast<int64_t>(run.start))
                               .str()});
  }
  DurableEvent launch = Event(DurableEventKind::kGangLaunch, now, id);
  launch.gang = ToGang(id, run.counts, run.start, run.expected_end);
  Journal(launch);
  if (run.actual_end <= now) {
    // The copy finished while orphaned; the completion surfaces with the
    // reconciliation (its report needed a reachable control plane).
    run.actual_end = now;
  }
  Launch(index_.at(id), std::move(run), now);
}

void ClusterRuntime::Commit(SimTime now,
                            const SchedulerPolicy::Decision& decision,
                            const SchedulerPolicy& policy, LaunchHook& hook) {
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  // Two-phase commit (DESIGN.md §11): journal the cycle's full intent
  // before any cluster mutation, journal each mutation after it lands, and
  // close with kCommitApplied carrying the policy's durable state. A crash
  // anywhere in between leaves an open intent that recovery reconciles
  // against what actually reached the cluster.
  if (params_.persist != nullptr) {
    DurableEvent intent = Event(DurableEventKind::kCommitIntent, now, -1);
    intent.drops = decision.drop;
    intent.preempts = decision.preempt;
    for (const Placement& placement : decision.start_now) {
      intent.gangs.push_back(ToGang(placement.job, placement.counts, now,
                                    now + placement.est_duration));
    }
    Journal(intent);
  }
  hook.AtCommitPoint(CommitPoint::kIntent);

  // Preemptions first (they free capacity the placements may rely on).
  for (JobId id : decision.preempt) {
    auto it = running_.find(id);
    if (it == running_.end()) {
      continue;
    }
    const int i = it->second.index;
    ledger_.Release(it->second.nodes);
    Trace({now, TraceEventKind::kPreempt, id, -1,
           static_cast<int32_t>(it->second.nodes.size())});
    running_.erase(it);
    SetState(i, JobState::kPending);  // restarts from scratch
    ++outcomes_[i].preemptions;
    ++counters_.preemptions;
    if (prov.enabled()) {
      prov.Record({.kind = ProvKind::kPreempted,
                   .time = now,
                   .job = id,
                   .value = static_cast<double>(outcomes_[i].preemptions),
                   .label = "policy-preempt",
                   .detail = {}});
    }
    Journal(Event(DurableEventKind::kGangPreempt, now, id));
  }

  for (JobId id : decision.drop) {
    const int i = index_of(id);
    if (i >= 0 && state(i) == JobState::kPending) {
      Drop(i, now, JobState::kDropped, "culled");
    }
  }

  bool first_launch = true;
  for (const Placement& placement : decision.start_now) {
    // Last line of defense: the scheduler's own ValidatePlan should have
    // caught malformed placements, but a buggy policy must never corrupt
    // the ledger — refuse the placement, count it, and keep running.
    auto refuse = [&](const char* why) {
      ++counters_.validator_violations;
      Trace({now, TraceEventKind::kPlanReject, placement.job});
      TETRI_LOG(kWarning) << "rejected placement of job " << placement.job
                          << ": " << why;
    };
    const int i = index_of(placement.job);
    if (i < 0) {
      refuse("unknown job id");
      continue;
    }
    if (state(i) != JobState::kPending) {
      refuse("job is not pending");
      continue;
    }
    const Job& job = jobs_[i];
    // Availability-type jobs may legitimately place fewer tasks than k
    // (one per rack); everything else is an exact gang.
    if (placement.total_nodes() < 1 || placement.total_nodes() > job.k) {
      refuse("gang size out of range");
      continue;
    }
    if (!InRange(placement.counts)) {
      refuse("partition out of range");
      continue;
    }
    RunningJob run;
    const char* why = "";
    switch (hook.Acquire(now, placement, ledger_, &run.nodes, &why)) {
      case LaunchHook::Verdict::kLaunched:
        break;
      case LaunchHook::Verdict::kRefused:
        refuse(why);
        continue;
      case LaunchHook::Verdict::kBounced:
        // A plan built against a stale believed view is not a policy bug:
        // ground truth refuses it (the gang stays pending and is replanned
        // next cycle) without charging the validator.
        ++counters_.stale_placement_bounces;
        Trace({now, TraceEventKind::kPlanReject, placement.job});
        if (prov.enabled()) {
          prov.Record({.kind = ProvKind::kRejected,
                       .time = now,
                       .job = placement.job,
                       .label = "stale-view",
                       .detail = JsonObj().Field("why", why).str()});
        }
        continue;
    }

    // The hook stretches the runtime of a gang started on a fail-slow node.
    const double slow = hook.Slowdown(run.nodes);
    run.counts = placement.counts;
    run.start = now;
    run.expected_end = now + placement.est_duration;
    const SimDuration actual = Start(i, std::move(run), slow, now);
    Trace({now, TraceEventKind::kStart, job.id, -1, placement.total_nodes()});
    if (prov.enabled()) {
      // Ground-truth placement quality (the scheduler only ever saw
      // estimates); this is what SLO-miss attribution keys on.
      prov.Record(
          {.kind = ProvKind::kStart,
           .time = now,
           .job = job.id,
           .value = static_cast<double>(placement.total_nodes()),
           .label = outcomes_[i].preferred ? "preferred" : "fallback",
           .detail = JsonObj()
                         .Field("nodes", placement.total_nodes())
                         .Field("est_duration",
                                static_cast<int64_t>(placement.est_duration))
                         .Field("actual_runtime", static_cast<int64_t>(actual))
                         .Field("straggler_factor", slow)
                         .str()});
    }
    if (first_launch) {
      first_launch = false;
      // The cluster mutation landed but its kGangLaunch record did not:
      // recovery must adopt this gang from the open commit intent.
      hook.AtCommitPoint(CommitPoint::kMidCommit);
    }
    DurableEvent launch = Event(DurableEventKind::kGangLaunch, now, job.id);
    launch.gang =
        ToGang(job.id, placement.counts, now, now + placement.est_duration);
    Journal(launch);
  }
  if (first_launch) {
    // Nothing launched this cycle; the mid-commit point still lies inside
    // the commit window, before kCommitApplied.
    hook.AtCommitPoint(CommitPoint::kMidCommit);
  }

  if (params_.persist != nullptr) {
    // kCommitApplied closes the cycle even when nothing was placed, so a
    // stale warm-start blob never outlives the cycle that cleared it.
    DurableEvent applied = Event(DurableEventKind::kCommitApplied, now, -1);
    applied.blob = policy.ExportDurableState();
    Journal(applied);
    image_.checkpoint_time = now;
    params_.persist->MaybeCheckpoint(image_);
  }
  hook.AtCommitPoint(CommitPoint::kApplied);
}

void ClusterRuntime::BuildView(SimTime now, std::vector<const Job*>* pending,
                               std::vector<RunningHold>* holds) {
  size_t kept = 0;
  for (int i : pending_list_) {
    if (slots_[i].state == JobState::kPending) {
      pending_list_[kept++] = i;
    } else {
      slots_[i].listed = false;
    }
  }
  pending_list_.resize(kept);
  for (int i : pending_list_) {
    if (slots_[i].eligible_at > now) {
      continue;  // still backing off after a failure kill
    }
    Job& job = jobs_[i];
    if (params_.learn_estimates) {
      job.learned_estimate_preferred =
          estimator_.Predict(job, /*preferred=*/true);
      job.learned_estimate_fallback =
          estimator_.Predict(job, /*preferred=*/false);
    }
    pending->push_back(&job);
  }
  for (const auto& [id, run] : running_) {
    const Job& job = jobs_[run.index];
    SimTime reservation_end = job.slo_class == SloClass::kSloAccepted
                                  ? job.reservation.end
                                  : kTimeNever;
    holds->push_back({id, job.slo_class, run.start, reservation_end,
                      run.counts, run.expected_end});
  }
}

void ClusterRuntime::CheckpointInitial(const SchedulerPolicy& policy) {
  if (params_.persist == nullptr) {
    return;
  }
  // SLO classes need no seed: the job table outlives a scheduler crash, and
  // every later change to a class is journaled (kSloUpdate).
  if (params_.rayon != nullptr) {
    image_.rayon = params_.rayon->ExportState();
  }
  image_.policy_state = policy.ExportDurableState();
  params_.persist->Checkpoint(image_);
}

void ClusterRuntime::Checkpoint(SimTime now) {
  if (params_.persist == nullptr) {
    return;
  }
  image_.checkpoint_time = now;
  params_.persist->Checkpoint(image_);
}

void ClusterRuntime::RestoreSchedulerState(const RecoveredState& state) {
  // 1. Rayon admission agenda.
  if (params_.rayon != nullptr) {
    params_.rayon->Restore(state.rayon);
  }
  // 2. SLO classes/reservations mutated since admission (re-admissions).
  for (const auto& [id, slo] : state.slo) {
    const int i = index_of(id);
    if (i >= 0) {
      jobs_[i].slo_class = static_cast<SloClass>(slo.slo_class);
      jobs_[i].reservation = slo.reservation;
    }
  }
  // 3. Retry/backoff state.
  for (const auto& [id, retry] : state.retries) {
    const int i = index_of(id);
    if (i >= 0) {
      slots_[i].eligible_at = retry.eligible_at;
      slots_[i].last_kill = retry.last_kill;
    }
  }
  // 4. Runtime estimator: retrained from the journaled completion stream in
  //    original observation order.
  if (params_.learn_estimates) {
    estimator_ = RuntimeEstimator();
    for (const CompletionRecord& completion : state.completions) {
      const int i = index_of(completion.job);
      if (i >= 0) {
        estimator_.Observe(jobs_[i], completion.preferred, completion.runtime);
      }
    }
  }
}

RecoveryResult ClusterRuntime::RecoverAfterCrash(SimTime now) {
  RecoveryResult result = params_.persist->Recover();
  RecoveredState& st = result.state;
  RestoreSchedulerState(st);
  // Reconcile the recovered view against the running set, which is cluster
  // ground truth and survived the crash. A gang the cluster runs but the
  // journal never confirmed must come from a commit interrupted between
  // mutation and its kGangLaunch record — adopt it from the open intent.
  for (const auto& [id, run] : running_) {
    if (st.running.count(id) != 0) {
      continue;
    }
    const std::vector<GangRecord> none;
    const std::vector<GangRecord>& intended =
        st.pending_intent.has_value() ? st.pending_intent->gangs : none;
    auto gang = std::find_if(intended.begin(), intended.end(),
                             [id](const GangRecord& g) { return g.job == id; });
    if (gang != intended.end()) {
      ++counters_.recovery_adoptions;
      st.running[id] = *gang;
    } else {
      ++counters_.recovery_mismatches;
      TETRI_LOG(kWarning)
          << "recovery: adopting unjournaled running gang of job " << id
          << " from cluster ground truth";
      st.running[id] = ToGang(id, run.counts, run.start, run.expected_end);
    }
  }
  std::erase_if(st.running, [this](const auto& entry) {
    if (running_.count(entry.first) != 0) {
      return false;
    }
    ++counters_.recovery_mismatches;
    TETRI_LOG(kWarning) << "recovery: journal believes job " << entry.first
                        << " is running but the cluster does not";
    return true;
  });
  st.pending_intent.reset();
  // The reconciled image is the new checkpoint; the journal restarts
  // empty, so a crash during recovery replays to the same state.
  image_ = std::move(st);
  TrimImage();
  Checkpoint(now);
  return result;
}

std::pair<int, int> ClusterRuntime::Resume(RecoveredState state) {
  RestoreSchedulerState(state);
  LaunchHook ledger_only;
  int pending = 0;
  int running = 0;
  for (int i = 0; i < num_jobs(); ++i) {
    if (slots_[i].state != JobState::kQueued) {
      continue;
    }
    // Adopt the journaled gang: running work outlives the scheduler
    // process, as in the paper's YARN deployment.
    auto gang = state.running.find(jobs_[i].id);
    Placement placement;
    RunningJob run;
    const char* why = "";
    if (gang != state.running.end()) {
      placement.counts = gang->second.counts;
      if (!InRange(placement.counts) ||
          ledger_only.Acquire(0, placement, ledger_, &run.nodes, &why) !=
              LaunchHook::Verdict::kLaunched) {
        TETRI_LOG(kWarning) << "resume: journaled gang of job "
                            << jobs_[i].id << " does not fit; requeueing it";
        gang = state.running.end();
      }
    }
    if (gang == state.running.end()) {
      SetState(i, JobState::kPending);
      ++pending;
      continue;
    }
    run.counts = placement.counts;
    run.start = gang->second.start;
    run.expected_end = gang->second.expected_end;
    Start(i, std::move(run), 1.0, gang->second.start);
    ++running;
  }
  image_ = std::move(state);
  TrimImage();
  return {pending, running};
}

}  // namespace tetrisched
