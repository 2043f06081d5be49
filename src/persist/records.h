// Durable scheduler events, snapshots, and replay (DESIGN.md §11).
//
// Everything the scheduler process must not lose across a crash is captured
// as a stream of DurableEvents appended to the write-ahead journal
// (journal.h), plus periodic full-state snapshots that bound replay length.
// RecoveredState is both the snapshot payload and the replay accumulator:
//
//   recover = DecodeSnapshot(snapshot) then ApplyEvent(...) per journal
//             record, truncating the torn tail at the first bad CRC.
//
// The two-phase commit protocol over these records:
//   * kCommitIntent is journaled *before* any of a cycle's mutations land
//     (placements, drops, preemptions listed in full),
//   * each applied mutation gets its own record (kGangLaunch, kJobDropped,
//     kGangPreempt) *after* the cluster state changed,
//   * kCommitApplied closes the cycle and carries the policy's opaque
//     durable state (TetriSched's warm-start plan).
// Replay that ends with an open intent (crash mid-commit) exposes it in
// RecoveredState::pending_intent so the harness can reconcile: gangs the
// cluster is actually running but the journal never confirmed are adopted
// from the intent; unconfirmed ones simply stay pending and are replanned.
// Every ApplyEvent is idempotent with respect to the state it targets, so a
// record journaled just before the matching mutation (journal ahead of
// memory) converges to the same state as one journaled just after.

#ifndef TETRISCHED_PERSIST_RECORDS_H_
#define TETRISCHED_PERSIST_RECORDS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/core/job.h"
#include "src/rayon/rayon.h"

namespace tetrisched {

enum class DurableEventKind : uint8_t {
  kRayonAdmit = 1,    // reservation granted: job, k, interval
  kRayonRelease = 2,  // reservation capacity returned: k, interval
  kRayonReject = 3,   // admission rejected (counter parity only)
  kSloUpdate = 4,     // job's slo_class/reservation changed (re-admission)
  kCommitIntent = 5,  // cycle plan about to be applied (gangs/drops/preempts)
  kGangLaunch = 6,    // one placement landed on the cluster
  kCommitApplied = 7, // cycle fully applied; blob = policy durable state
  kGangComplete = 8,  // job finished (preferred flag + runtime for replay)
  kGangKill = 9,      // gang killed by a node failure; retry/backoff state
  kGangPreempt = 10,  // gang preempted back to pending
  kJobDropped = 11,   // job dropped (deadline unreachable / retries spent)
  // AIMD plan-ahead adaptation (DESIGN.md §13): k = direction (-1 shrink,
  // +1 restore), runtime = the new effective plan-ahead window. No longer
  // written; still decoded so older journals replay. The adapted state rides
  // the kCommitApplied policy blob, so ApplyEvent treats this as a no-op.
  kPlanAheadAdapt = 12,
  // Fence-epoch bump (DESIGN.md §15): the scheduler gave up on `node` and
  // raised its placement epoch to `epoch`. Journaled *before* the in-memory
  // bump (WAL discipline) so recovery can never issue a command under an
  // epoch older than one a node agent may already have adopted — i.e. a
  // crash never resurrects a fenced placement.
  kEpochBump = 13,
  // Service-layer job acceptance (DESIGN.md §16): tetrischedd acknowledged
  // a client submission (journaled before the reply). `blob` carries the
  // canonical JSON job spec (service/jobspec.h) so a restarted daemon can
  // rebuild the Job; erased from RecoveredState::service_jobs when the job
  // finishes or is dropped, so replay leaves exactly the
  // accepted-but-unfinished set.
  kServiceSubmit = 14,
};

const char* ToString(DurableEventKind kind);

// One running (or intended) gang as the scheduler's resource-manager view:
// what it holds and when it is believed to release it. Ground-truth fields
// (concrete node ids, actual completion time) are deliberately absent —
// they belong to the cluster, which survives a scheduler crash.
struct GangRecord {
  JobId job = -1;
  std::map<PartitionId, int> counts;
  SimTime start = 0;
  SimTime expected_end = 0;
  SimDuration est_duration = 0;

  bool operator==(const GangRecord& other) const = default;
};

struct DurableEvent {
  DurableEventKind kind = DurableEventKind::kCommitApplied;
  SimTime time = 0;
  JobId job = -1;

  // Rayon fields (kRayonAdmit / kRayonRelease).
  int k = 0;
  TimeRange interval{0, 0};

  // Retry/backoff fields (kGangKill).
  int retries = 0;
  SimTime eligible_at = 0;

  // kSloUpdate.
  uint8_t slo_class = 0;

  // kGangComplete (estimator replay inputs).
  bool preferred = false;
  SimDuration runtime = 0;

  // kGangLaunch.
  GangRecord gang;

  // kCommitIntent.
  std::vector<GangRecord> gangs;
  std::vector<JobId> drops;
  std::vector<JobId> preempts;

  // kCommitApplied: opaque policy durable state.
  std::string blob;

  // kEpochBump.
  NodeId node = -1;
  uint64_t epoch = 0;

  bool operator==(const DurableEvent& other) const = default;
};

std::string EncodeEvent(const DurableEvent& event);
bool DecodeEvent(std::string_view bytes, DurableEvent* event);

struct RetryRecord {
  JobId job = -1;
  int retries = 0;
  SimTime eligible_at = 0;
  SimTime last_kill = -1;

  bool operator==(const RetryRecord& other) const = default;
};

struct SloRecord {
  JobId job = -1;
  uint8_t slo_class = 0;
  TimeRange reservation{0, 0};

  bool operator==(const SloRecord& other) const = default;
};

struct CompletionRecord {
  JobId job = -1;
  bool preferred = false;
  SimDuration runtime = 0;

  bool operator==(const CompletionRecord& other) const = default;
};

struct PendingIntent {
  SimTime time = 0;
  std::vector<GangRecord> gangs;
  std::vector<JobId> drops;
  std::vector<JobId> preempts;

  bool operator==(const PendingIntent& other) const = default;
};

// Full recoverable image of the scheduler process. Doubles as the snapshot
// payload and the journal-replay accumulator.
struct RecoveredState {
  SimTime checkpoint_time = 0;
  RayonState rayon;
  std::map<JobId, GangRecord> running;
  std::map<JobId, RetryRecord> retries;
  std::map<JobId, SloRecord> slo; // current class/reservation per SLO job
  // Ordered completion observations (rebuilds the runtime estimator).
  std::vector<CompletionRecord> completions;
  // Latest policy durable state (kCommitApplied blob).
  std::string policy_state;
  // Intent journaled without a matching kCommitApplied: crash mid-commit.
  std::optional<PendingIntent> pending_intent;
  // Per-node fence epochs (DESIGN.md §15); only nodes ever fenced appear.
  // Replay max-merges kEpochBump records so the table is monotonic even
  // across snapshot/journal boundaries.
  std::map<NodeId, uint64_t> epochs;
  // Accepted-but-unfinished service submissions (DESIGN.md §16): job id ->
  // canonical JSON job spec. A job leaves the table when it completes or is
  // dropped; a restarted tetrischedd resumes every job here that is not
  // `running` (adopted as a live gang).
  std::map<JobId, std::string> service_jobs;

  bool operator==(const RecoveredState& other) const = default;
};

// Applies one journal record to the accumulator (see the protocol above).
void ApplyEvent(RecoveredState& state, const DurableEvent& event);

std::string EncodeSnapshot(const RecoveredState& state);
bool DecodeSnapshot(std::string_view bytes, RecoveredState* state);

}  // namespace tetrisched

#endif  // TETRISCHED_PERSIST_RECORDS_H_
