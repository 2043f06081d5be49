// ClusterRuntime: the one job lifecycle shared by the simulator and
// tetrischedd (DESIGN.md §17). It owns the job table (dense-indexed in the
// order jobs were added), the NodeLedger and running set with a completion
// queue ordered by actual end, Rayon admission, the two-phase commit
// journal with its shadow checkpoint image (every append mirrored through
// ApplyEvent), the complete / drop / cancel / preempt / kill-requeue
// transitions with their provenance records and trace events, and the
// policy's view. A driver keeps its clock and its faults; what differs
// between a simulated and a served launch reaches the runtime through one
// LaunchHook.

#ifndef TETRISCHED_RUNTIME_CLUSTER_RUNTIME_H_
#define TETRISCHED_RUNTIME_CLUSTER_RUNTIME_H_

#include <array>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/ledger.h"
#include "src/common/stats.h"
#include "src/core/estimator.h"
#include "src/core/job.h"
#include "src/core/policy.h"
#include "src/persist/persist.h"
#include "src/rayon/rayon.h"
#include "src/sim/trace.h"

namespace tetrisched {

enum class JobState : uint8_t {
  kQueued,     // known to the runtime, not yet offered to the policy
  kPending,    // offered to the policy every cycle
  kRunning,    // gang holds nodes
  kCompleted,
  kDropped,    // dropped by the policy or after max_retries kills
  kCancelled,  // withdrawn by its submitter
};
inline constexpr int kNumJobStates = 6;

const char* ToString(JobState state);

struct JobOutcome {
  JobId id = -1;
  SloClass slo_class = SloClass::kBestEffort;
  JobType type = JobType::kUnconstrained;
  SimTime submit = 0;
  SimTime deadline = kTimeNever;
  bool started = false;
  bool completed = false;
  bool dropped = false;
  SimTime start_time = -1;
  SimTime completion = -1;
  bool preferred = false;  // actual placement quality at completion
  // Final placement (partition -> node count); empty if never started.
  std::map<PartitionId, int> placement;
  int preemptions = 0;
  // Churn bookkeeping: failure-kill restarts, total time spent between a
  // kill and the subsequent restart, reservation re-admissions after a
  // kill, and whether the reservation was ultimately dropped (downgrade to
  // unreserved). slo_class above stays the admission-time class.
  int retries = 0;
  SimDuration recovery_latency = 0;
  int readmissions = 0;
  bool reservation_dropped = false;

  bool MetDeadline() const {
    return completed && completion <= deadline;
  }
  bool is_slo() const { return slo_class != SloClass::kBestEffort; }
};

// A gang holding nodes: what the scheduler believes (expected_end) next to
// what the cluster will do (actual_end).
struct RunningJob {
  int index = -1;  // dense job index
  std::vector<NodeId> nodes;
  std::map<PartitionId, int> counts;
  SimTime start = 0;
  SimTime expected_end = 0;  // scheduler-visible (estimate-derived)
  SimTime actual_end = 0;    // ground truth
};

// True placement quality: does this partition-count assignment satisfy the
// job's preference (GPU nodes only / single rack / the job's own data
// partitions / anything)?
bool IsPreferredPlacement(const Cluster& cluster, const Job& job,
                          const std::map<PartitionId, int>& counts);

// The one reservation request: k nodes for the job's preferred-placement
// runtime estimate, inside [window_start, deadline]. The scheduler, not
// the admission plan, absorbs the slowdown risk of fallback placements.
ReservationDecision Reserve(RayonAdmission& rayon, const Job& job,
                            SimTime window_start);

// Runs every reservation-seeking job through Reserve() (in submit order,
// window from its submit time), setting slo_class and reservation on each
// job. Returns the number accepted. When `rayon` is provided the admission
// runs against it (so the same agenda can later serve re-admission);
// otherwise a throwaway agenda is used.
int ApplyAdmission(const Cluster& cluster, std::vector<Job>& jobs,
                   RayonAdmission* rayon = nullptr);

// Where a commit may be interrupted: after the intent is journaled; once
// per commit inside the mutation window (after the first launch landed but
// before its kGangLaunch record, or before kCommitApplied when nothing
// launched); and after kCommitApplied.
enum class CommitPoint { kIntent, kMidCommit, kApplied };

// The driver's side of a launch. The default takes the placement from the
// ledger when it fits and refuses it otherwise; the simulator overrides it
// for its lossy control plane, stragglers and crash points, and a test can
// fake it.
class LaunchHook {
 public:
  enum class Verdict {
    kLaunched,  // *nodes holds the gang; the runtime starts it
    kRefused,   // the plan is wrong: a validator violation
    kBounced,   // the plan met a stale view: the job stays pending
  };
  virtual ~LaunchHook() = default;
  // Takes every node of `placement` out of `ledger`, or none (then *why
  // says what failed). Partition ids and counts are already range-checked.
  virtual Verdict Acquire(SimTime now, const Placement& placement,
                          NodeLedger& ledger, std::vector<NodeId>* nodes,
                          const char** why);
  // Factor (>= 1) stretching the actual runtime of a gang started on
  // `nodes`.
  virtual double Slowdown(const std::vector<NodeId>& /*nodes*/) {
    return 1.0;
  }
  // Reached at every CommitPoint; a crash-injecting driver throws here.
  virtual void AtCommitPoint(CommitPoint /*point*/) {}
};

struct RuntimeParams {
  RayonAdmission* rayon = nullptr;         // re-admission agenda; not owned
  PersistenceManager* persist = nullptr;   // journal; not owned
  SimTrace* trace = nullptr;               // event recorder; not owned
  // A failure-killed gang re-enters the pending queue after
  // min(retry_backoff_cap, retry_backoff << (kills-1)) and is dropped after
  // max_retries kills.
  int max_retries = 5;
  SimDuration retry_backoff = 4;
  SimDuration retry_backoff_cap = 64;
  bool learn_estimates = false;  // completions train a RuntimeEstimator
};

// Lifecycle counters a driver reports (SimMetrics, DaemonStatus).
struct RuntimeCounters {
  int preemptions = 0;
  int failure_kills = 0;
  int retries_exhausted = 0;
  int readmissions = 0;
  int reservations_dropped = 0;
  int validator_violations = 0;  // placements the ledger check refused
  int stale_placement_bounces = 0;
  int straggler_slowed_starts = 0;  // gangs the hook slowed at start
  int recovery_adoptions = 0;   // running gangs adopted from an open intent
  int recovery_mismatches = 0;  // journal vs running-set conflicts
  SampleStats recovery_latency;  // kill -> restart gap per retry (s)
};

class ClusterRuntime {
 public:
  ClusterRuntime(const Cluster& cluster, RuntimeParams params);

  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  // --- job table ---------------------------------------------------------
  // Registers a job as kQueued and returns its dense index.
  int AddJob(Job job);
  int index_of(JobId id) const;  // -1 when unknown
  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  const Job& job(int i) const { return jobs_[i]; }
  JobState state(int i) const { return slots_[i].state; }
  const JobOutcome& outcome(int i) const { return outcomes_[i]; }
  // When a finished job left: completion, drop or cancel time; -1 while
  // the job is open.
  SimTime end_time(int i) const { return slots_[i].end; }
  int64_t count(JobState state) const {
    return counts_[static_cast<int>(state)];
  }
  int64_t open_jobs() const {
    return count(JobState::kQueued) + count(JobState::kPending) +
           count(JobState::kRunning);
  }
  std::vector<JobOutcome> TakeOutcomes() { return std::move(outcomes_); }

  // --- transitions -------------------------------------------------------
  // kQueued -> kPending: the job reaches the policy.
  void Arrive(int i, SimTime now);
  // Rayon admission at intake (reservation seekers reserve through
  // Reserve(); other jobs with a deadline become unreserved SLO jobs),
  // journaled, then Arrive().
  void Admit(int i, SimTime now);
  // Completes every gang whose actual end is <= now, at that end.
  void CompleteUntil(SimTime now);
  SimTime next_completion() const {
    return completions_.empty() ? kTimeNever : completions_.top().first;
  }
  // Withdraws a queued, pending or running job; a running job frees its
  // nodes. False when the job already finished.
  bool Cancel(int i, SimTime now);
  // A node failure killed running gang `victim`: `released` nodes go back
  // to the ledger, and the job is requeued after its backoff (with Rayon
  // re-admission when its reservation can no longer start on time) or
  // dropped once its retries are spent.
  void Kill(JobId victim, NodeId cause, SimTime now,
            std::vector<NodeId> released);
  // Returns an orphaned copy of pending job `id` to the running set
  // (lossy-control-plane reconciliation found it intact on `node`).
  void Adopt(JobId id, RunningJob run, SimTime now, NodeId node);
  // Applies one cycle's decision as a two-phase commit: journal the
  // intent, preempt, drop, launch each placement through `hook` (refusing
  // malformed or over-capacity ones), close with kCommitApplied carrying
  // the policy's durable state, and checkpoint when due.
  void Commit(SimTime now, const SchedulerPolicy::Decision& decision,
              const SchedulerPolicy& policy, LaunchHook& hook);

  // --- the policy's view -------------------------------------------------
  // Appends the pending jobs past their backoff (in job-table order) and
  // the running holds (in job id order). Reuse the vectors across cycles.
  void BuildView(SimTime now, std::vector<const Job*>* pending,
                 std::vector<RunningHold>* holds);

  // --- records -------------------------------------------------------------
  // Appends to the journal (and mirrors into the image) when one is set.
  void Journal(const DurableEvent& event);
  // Records a trace event when a trace is attached.
  void Trace(const TraceEvent& event);
  // Seeds the image with the Rayon agenda, every SLO job's class and the
  // policy's state, and writes it as the first checkpoint.
  void CheckpointInitial(const SchedulerPolicy& policy);
  void Checkpoint(SimTime now);
  // What replaying the journal rebuilds, less the completions unless
  // estimates are learned.
  const RecoveredState& image() const { return image_; }

  // The scheduler process died but the cluster did not: rebuild Rayon, SLO
  // classes, retry state and the estimator from the journal, reconcile the
  // journal's running set against the runtime's, and checkpoint the
  // reconciled image. The recovered state moves into image().
  RecoveryResult RecoverAfterCrash(SimTime now);
  // A restarted scheduler process with an empty running set: every kQueued
  // job becomes running when `state` holds its gang and pending otherwise;
  // `state` becomes the image. Returns {pending, running} counts.
  std::pair<int, int> Resume(RecoveredState state);

  // --- ground truth for drivers ------------------------------------------
  NodeLedger& ledger() { return ledger_; }
  const std::map<JobId, RunningJob>& running() const { return running_; }
  RunningJob* find_running(JobId id);
  const RuntimeCounters& counters() const { return counters_; }

 private:
  void SetState(int i, JobState state);
  void RestoreSchedulerState(const RecoveredState& state);
  // Drops the image's completions when estimates are not learned.
  void TrimImage();
  // Starts job i on run's nodes at run.start, `slow` times its true
  // runtime; returns that runtime.
  SimDuration Start(int i, RunningJob run, double slow, SimTime now);
  // Puts `run` in the running set; a restart resolves a pending kill gap.
  void Launch(int i, RunningJob run, SimTime now);
  bool InRange(const std::map<PartitionId, int>& counts) const;
  void Drop(int i, SimTime now, JobState state, const char* why,
            double value = 0.0, std::string detail = {});

  const Cluster& cluster_;
  RuntimeParams params_;
  NodeLedger ledger_;
  RuntimeEstimator estimator_;

  struct Slot {
    JobState state = JobState::kQueued;
    bool listed = false;  // in pending_list_
    SimTime eligible_at = 0;
    SimTime last_kill = -1;
    SimTime end = -1;
  };
  std::vector<Job> jobs_;
  std::vector<Slot> slots_;
  std::vector<JobOutcome> outcomes_;
  std::unordered_map<JobId, int> index_;
  std::array<int64_t, kNumJobStates> counts_{};
  // Ascending indices that were pending when listed; BuildView drops the
  // stale ones.
  std::vector<int> pending_list_;

  std::map<JobId, RunningJob> running_;
  // (actual end, job id), earliest first; entries whose gang ended
  // otherwise are skipped when popped.
  std::priority_queue<std::pair<SimTime, JobId>,
                      std::vector<std::pair<SimTime, JobId>>, std::greater<>>
      completions_;

  RecoveredState image_;
  RuntimeCounters counters_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_RUNTIME_CLUSTER_RUNTIME_H_
