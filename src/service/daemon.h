// tetrischedd — the scheduler as a long-running service (DESIGN.md §16).
//
// SchedulerDaemon wraps the TetriSched library in a single-threaded
// poll-based serving loop. It keeps what is particular to a service:
//
//   * transports: loopback TCP and/or Unix domain listeners, plus adopted
//     pre-connected fds (socketpairs) for deterministic in-process tests,
//   * the JSON protocol (submit / status / cancel / explain / metrics /
//     drain / shutdown),
//   * admission control with backpressure (admission.h): bounded intake
//     queue, per-client fairness, explicit `overloaded` rejections with
//     retry-after hints,
//   * a real-clock cycle driver: every cycle_period_ms of wall time the
//     virtual clock advances by sim_seconds_per_cycle and one scheduling
//     cycle runs TetriScheduler::OnCycle under the §13 cycle budget.
//
// The job lifecycle is the simulator's: a ClusterRuntime (DESIGN.md §17)
// owns the job table, the ledger, Rayon admission, completions, drops,
// cancels and the two-phase journaled commit. An acknowledged submission is
// journaled (kServiceSubmit) before the reply; SIGTERM triggers a final
// checkpoint of the runtime's image, and a restarted daemon resumes
// accepted-but-unfinished jobs and adopts journaled running gangs. Like the
// paper's YARN deployment, running work survives a scheduler restart.
//
// Threading: everything runs on the thread that calls Run(). Other threads
// (and signal handlers) may only call RequestStop/RequestDrain/
// AddConnectionFd/Wakeup, which are async-safe flags + a self-pipe write.

#ifndef TETRISCHED_SERVICE_DAEMON_H_
#define TETRISCHED_SERVICE_DAEMON_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/job.h"
#include "src/core/scheduler.h"
#include "src/net/event_loop.h"
#include "src/persist/persist.h"
#include "src/rayon/rayon.h"
#include "src/runtime/cluster_runtime.h"
#include "src/service/admission.h"
#include "src/service/protocol.h"

namespace tetrisched {

struct DaemonOptions {
  // --- transports (any combination; tests may rely on adopted fds only) --
  std::string unix_socket_path;  // empty = no Unix listener
  int tcp_port = -1;             // -1 = no TCP listener; 0 = kernel-assigned

  // --- cluster & scheduler ----------------------------------------------
  int racks = 4;
  int nodes_per_rack = 8;
  int gpu_racks = 1;
  TetriSchedConfig scheduler;

  // --- cycle driver ------------------------------------------------------
  // Wall-clock between scheduling cycles. The §13 budget defaults to this
  // (solver wall-clock is clamped inside the cycle) unless the caller set
  // scheduler.budget explicitly.
  int64_t cycle_period_ms = 100;
  // Virtual seconds the service clock advances per cycle. The scheduler's
  // plan-ahead/quantum arithmetic runs in virtual seconds, so this is the
  // paper's 4 s cycle period by default; tests shrink cycle_period_ms to
  // run virtual time faster than real time.
  SimDuration sim_seconds_per_cycle = 4;

  // --- admission ---------------------------------------------------------
  AdmissionOptions admission;
  // Bound on the scheduler's pending set; intake drains only into the gap.
  int max_pending_jobs = 256;

  // --- connections -------------------------------------------------------
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Evict connections idle longer than this; 0 disables.
  int64_t idle_timeout_ms = 0;

  // --- durability --------------------------------------------------------
  // Journal storage; not owned (a restarted daemon re-attaches to the same
  // storage). nullptr = ephemeral daemon (no journal, no restart story).
  JournalStorage* storage = nullptr;
  int snapshot_every = 256;

  // --- observability -----------------------------------------------------
  // Keep the provenance flight recorder on so the `explain` op works.
  bool enable_provenance = true;
  size_t provenance_ring = 0;  // 0 = TETRISCHED_PROVENANCE_RING default
};

// Point-in-time counters exposed through `status` and to tests.
struct DaemonStatus {
  SimTime now = 0;
  int64_t cycles = 0;
  int64_t queued = 0;
  int64_t pending = 0;
  int64_t running = 0;
  int64_t completed = 0;
  int64_t dropped = 0;
  int64_t cancelled = 0;
  int64_t admitted_total = 0;
  int64_t rejected_total = 0;
  int64_t validator_violations = 0;
  bool draining = false;
  bool drained = false;  // draining and no queued/pending/running work left
};

class SchedulerDaemon {
 public:
  explicit SchedulerDaemon(DaemonOptions options);
  ~SchedulerDaemon();

  SchedulerDaemon(const SchedulerDaemon&) = delete;
  SchedulerDaemon& operator=(const SchedulerDaemon&) = delete;

  // Binds listeners and recovers from the journal. False when a requested
  // listener cannot be bound (the journal is recovered regardless).
  bool Start();

  // Serves until a stop request (RequestStop, `shutdown` op, or a
  // termination signal routed to wakeup_fd). Runs the final checkpoint
  // before returning.
  void Run();

  // Thread-safe controls.
  void RequestStop();
  void RequestDrain();
  // Adopts a pre-connected stream fd (takes ownership). Thread-safe; the
  // connection is registered on the loop thread's next pass.
  void AddConnectionFd(int fd);

  // The event loop's self-pipe write end, for signal handler installation.
  int wakeup_fd() const { return loop_.wakeup_fd(); }

  // Bound TCP port (valid after Start when tcp_port was requested).
  int tcp_port() const { return bound_tcp_port_; }
  const Cluster& cluster() const { return cluster_; }
  const DaemonOptions& options() const { return options_; }

  // Thread-safe snapshot of the serving counters (tests poll this).
  DaemonStatus StatusSnapshot() const;

  // Number of jobs recovered into the pending set / adopted as running at
  // Start() (tests assert restart resume).
  int recovered_pending() const { return recovered_pending_; }
  int recovered_running() const { return recovered_running_; }

 private:
  // --- durability --------------------------------------------------------
  void RecoverFromJournal();
  void FinalCheckpoint();

  // --- serving -----------------------------------------------------------
  void OnListenerReadable(int listener_fd);
  void AdoptConnection(UniqueFd fd);
  void OnConnectionEvent(int64_t connection_id, uint32_t events);
  void CloseConnection(int64_t connection_id);
  void AdoptPendingFds();
  void EvictIdleConnections();

  // --- protocol ----------------------------------------------------------
  std::string HandleRequest(int64_t connection_id, std::string_view payload);
  std::string HandleSubmit(const ServiceRequest& request,
                           const std::string& client, int64_t connection_id);
  std::string HandleStatus(const ServiceRequest& request);
  std::string HandleCancel(const ServiceRequest& request);
  std::string HandleExplain(const ServiceRequest& request);
  std::string HandleMetrics(const ServiceRequest& request);

  // --- cycle driver ------------------------------------------------------
  void RunCycle();
  void DrainIntakeIntoPending();

  JsonObj JobStatusJson(int index) const;
  DaemonStatus UnlockedStatus() const;
  // Adds the runtime's new completions, drops and cancels to the registry.
  void PublishCounters();
  void PublishStatus();

  DaemonOptions options_;
  Cluster cluster_;
  TetriScheduler scheduler_;
  RayonAdmission rayon_;
  std::unique_ptr<PersistenceManager> persist_;  // null when no storage
  ClusterRuntime runtime_;
  LaunchHook launch_;  // the ledger-only launch: belief == truth here
  AdmissionQueue intake_;
  EventLoop loop_;

  std::vector<UniqueFd> listeners_;
  int bound_tcp_port_ = -1;
  std::map<int64_t, std::unique_ptr<FramedConnection>> connections_;
  int64_t next_connection_id_ = 1;

  std::vector<std::string> clients_;  // submitting client, by job index
  JobId next_job_id_ = 1;
  SimTime now_ = 0;
  int64_t cycles_ = 0;
  // Runtime job counts already added to the registry counters.
  int64_t published_completed_ = 0;
  int64_t published_dropped_ = 0;
  int64_t published_cancelled_ = 0;
  int64_t admitted_total_ = 0;
  int64_t rejected_total_ = 0;
  int recovered_pending_ = 0;
  int recovered_running_ = 0;

  bool draining_ = false;
  bool stopped_ = false;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  std::mutex adopted_mu_;
  std::vector<UniqueFd> adopted_fds_;

  mutable std::mutex status_mu_;
  DaemonStatus published_status_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_SERVICE_DAEMON_H_
