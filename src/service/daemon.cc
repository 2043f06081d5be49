#include "src/service/daemon.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/core/plan_check.h"
#include "src/obs/explain.h"
#include "src/obs/provenance.h"
#include "src/service/jobspec.h"
#include "src/service/signals.h"

namespace tetrisched {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

// PersistenceManager owns its storage; the daemon's storage must outlive
// restarts (the whole point of the journal), so hand the manager a
// non-owning forwarder instead.
class ForwardingStorage : public JournalStorage {
 public:
  explicit ForwardingStorage(JournalStorage* target) : target_(target) {}
  void AppendJournal(std::string_view bytes) override {
    target_->AppendJournal(bytes);
  }
  std::string ReadJournal() const override { return target_->ReadJournal(); }
  void TruncateJournal() override { target_->TruncateJournal(); }
  void WriteSnapshot(std::string_view bytes) override {
    target_->WriteSnapshot(bytes);
  }
  std::string ReadSnapshot() const override {
    return target_->ReadSnapshot();
  }

 private:
  JournalStorage* target_;
};

struct ServiceInstruments {
  Counter* admitted;
  Counter* rejected;
  Counter* completed;
  Counter* dropped;
  Counter* cancelled;
  Counter* requests;
  Counter* frames;
  Counter* resyncs;
  Counter* oversized;
  Gauge* inflight;
  Gauge* connections;
  Histogram* request_ms;
};

ServiceInstruments& Instruments() {
  static ServiceInstruments instruments = [] {
    MetricsRegistry& registry = GlobalMetrics();
    ServiceInstruments i;
    i.admitted = registry.GetCounter("tetrisched_service_admitted_total");
    i.rejected = registry.GetCounter("tetrisched_service_rejected_total");
    i.completed = registry.GetCounter("tetrisched_service_completed_total");
    i.dropped = registry.GetCounter("tetrisched_service_dropped_total");
    i.cancelled = registry.GetCounter("tetrisched_service_cancelled_total");
    i.requests = registry.GetCounter("tetrisched_service_requests_total");
    i.frames = registry.GetCounter("tetrisched_net_frames_total");
    i.resyncs = registry.GetCounter("tetrisched_net_resyncs_total");
    i.oversized = registry.GetCounter("tetrisched_net_oversized_total");
    i.inflight = registry.GetGauge("tetrisched_service_inflight_total");
    i.connections = registry.GetGauge("tetrisched_service_connections");
    i.request_ms = registry.GetHistogram("tetrisched_service_request_ms");
    return i;
  }();
  return instruments;
}

}  // namespace

const char* SchedulerDaemon::ToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kPending:
      return "pending";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kDropped:
      return "dropped";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

SchedulerDaemon::SchedulerDaemon(DaemonOptions options)
    : options_([&options] {
        // The cycle budget defaults to the real cycle period so the solver
        // cannot overrun the serving cadence (DESIGN.md §13 reuse).
        if (options.scheduler.budget.budget_seconds == 0.0) {
          options.scheduler.budget.budget_seconds =
              static_cast<double>(options.cycle_period_ms) / 1000.0;
        }
        options.admission.cycle_period_ms =
            std::max<int64_t>(1, options.cycle_period_ms);
        return options;
      }()),
      cluster_(MakeUniformCluster(options_.racks, options_.nodes_per_rack,
                                  options_.gpu_racks)),
      scheduler_(cluster_, options_.scheduler),
      rayon_(cluster_.num_nodes()),
      intake_(options_.admission) {
  if (options_.storage != nullptr) {
    PersistOptions persist_options;
    persist_options.snapshot_every = options_.snapshot_every;
    persist_ = std::make_unique<PersistenceManager>(
        std::make_unique<ForwardingStorage>(options_.storage),
        persist_options);
  }
  if (options_.enable_provenance) {
    ProvenanceRecorder::Global().Enable(options_.provenance_ring);
  }
}

SchedulerDaemon::~SchedulerDaemon() = default;

bool SchedulerDaemon::Start() {
  RecoverFromJournal();
  bool ok = true;
  if (!options_.unix_socket_path.empty()) {
    UniqueFd fd = ListenUnix(options_.unix_socket_path);
    if (fd.valid()) {
      int raw = fd.get();
      listeners_.push_back(std::move(fd));
      loop_.Add(raw, [this, raw](uint32_t) { OnListenerReadable(raw); });
    } else {
      ok = false;
    }
  }
  if (options_.tcp_port >= 0) {
    UniqueFd fd = ListenTcpLoopback(options_.tcp_port, &bound_tcp_port_);
    if (fd.valid()) {
      int raw = fd.get();
      listeners_.push_back(std::move(fd));
      loop_.Add(raw, [this, raw](uint32_t) { OnListenerReadable(raw); });
    } else {
      ok = false;
    }
  }
  PublishStatus();
  return ok;
}

void SchedulerDaemon::RecoverFromJournal() {
  if (persist_ == nullptr) {
    return;
  }
  RecoveryResult result = persist_->Recover();
  const RecoveredState& state = result.state;
  now_ = state.checkpoint_time;
  rayon_.Restore(state.rayon);
  if (!state.policy_state.empty()) {
    scheduler_.ImportDurableState(state.policy_state);
  }
  JobId max_id = 0;
  for (const auto& [job_id, spec_json] : state.service_jobs) {
    JsonValue spec;
    std::string error;
    if (!JsonParse(spec_json, &spec, &error)) {
      TETRI_LOG(kWarning) << "recovery: undecodable job spec for job "
                          << job_id << ": " << error;
      continue;
    }
    JobEntry entry;
    if (!JobSpecFromJson(spec, now_, &entry.job, &error)) {
      TETRI_LOG(kWarning) << "recovery: invalid job spec for job " << job_id
                          << ": " << error;
      continue;
    }
    entry.job.id = job_id;
    entry.client = "(recovered)";
    entry.accepted_at = entry.job.submit;
    max_id = std::max(max_id, job_id);
    // Reservation class survives via the journaled kSloUpdate records.
    if (auto slo = state.slo.find(job_id); slo != state.slo.end()) {
      entry.job.slo_class = static_cast<SloClass>(slo->second.slo_class);
      entry.job.reservation = slo->second.reservation;
    }
    if (auto gang = state.running.find(job_id);
        gang != state.running.end()) {
      // Adopt the journaled running gang: the daemon persists its RM view,
      // and (as in the paper's YARN deployment) running work survives a
      // scheduler restart.
      entry.state = JobState::kRunning;
      entry.start = gang->second.start;
      entry.placement = gang->second.counts;
      // Belief == truth in service mode, so the journaled expected end is
      // the completion instant; infer placement quality from it.
      entry.end = gang->second.expected_end;
      entry.preferred = gang->second.est_duration <= entry.job.actual_runtime;
      ++running_count_;
      ++recovered_running_;
    } else {
      entry.state = JobState::kPending;
      pending_.push_back(job_id);
      ++recovered_pending_;
    }
    jobs_.emplace(job_id, std::move(entry));
  }
  next_job_id_ = std::max<JobId>(next_job_id_, max_id + 1);
  if (result.replayed > 0 || result.snapshot_loaded) {
    TETRI_LOG(kInfo) << "tetrischedd recovered at t=" << now_ << ": "
                     << recovered_pending_ << " pending + "
                     << recovered_running_ << " running jobs (replayed "
                     << result.replayed << " records, dropped "
                     << result.dropped << ")";
  }
  if (ProvenanceRecorder::Global().enabled()) {
    ProvenanceRecord record;
    record.kind = ProvKind::kRecovery;
    record.time = now_;
    record.value = static_cast<double>(result.replayed);
    ProvenanceRecorder::Global().Record(std::move(record));
  }
}

RecoveredState SchedulerDaemon::BuildRecoveredState() const {
  RecoveredState state;
  state.checkpoint_time = now_;
  state.rayon = rayon_.ExportState();
  state.policy_state = scheduler_.ExportDurableState();
  for (const auto& [job_id, entry] : jobs_) {
    switch (entry.state) {
      case JobState::kQueued:
      case JobState::kPending:
        state.service_jobs[job_id] = JobSpecToJson(entry.job);
        break;
      case JobState::kRunning: {
        state.service_jobs[job_id] = JobSpecToJson(entry.job);
        GangRecord gang;
        gang.job = job_id;
        gang.counts = entry.placement;
        gang.start = entry.start;
        gang.expected_end = entry.end;
        gang.est_duration = entry.end - entry.start;
        state.running[job_id] = gang;
        break;
      }
      case JobState::kCompleted:
      case JobState::kDropped:
      case JobState::kCancelled:
        state.finished.insert(job_id);
        break;
    }
    if (entry.job.is_slo()) {
      state.slo[job_id] =
          SloRecord{job_id, static_cast<uint8_t>(entry.job.slo_class),
                    entry.job.reservation};
    }
  }
  return state;
}

void SchedulerDaemon::FinalCheckpoint() {
  if (persist_ == nullptr) {
    return;
  }
  persist_->Checkpoint(BuildRecoveredState());
  TETRI_LOG(kInfo) << "tetrischedd final checkpoint at t=" << now_ << " ("
                   << jobs_.size() << " jobs tracked)";
}

void SchedulerDaemon::Journal(const DurableEvent& event) {
  if (persist_ != nullptr) {
    persist_->Append(event);
  }
}

// --- serving ---------------------------------------------------------------

void SchedulerDaemon::OnListenerReadable(int listener_fd) {
  for (;;) {
    UniqueFd fd = AcceptOne(listener_fd);
    if (!fd.valid()) {
      break;
    }
    AdoptConnection(std::move(fd));
  }
}

void SchedulerDaemon::AdoptConnection(UniqueFd fd) {
  int64_t id = next_connection_id_++;
  auto connection = std::make_unique<FramedConnection>(
      std::move(fd), options_.max_frame_bytes, id);
  int raw = connection->fd();
  connections_.emplace(id, std::move(connection));
  loop_.Add(raw, [this, id](uint32_t events) {
    OnConnectionEvent(id, events);
  });
  Instruments().connections->Set(static_cast<double>(connections_.size()));
}

void SchedulerDaemon::AdoptPendingFds() {
  std::vector<UniqueFd> adopted;
  {
    std::lock_guard<std::mutex> lock(adopted_mu_);
    adopted.swap(adopted_fds_);
  }
  for (UniqueFd& fd : adopted) {
    AdoptConnection(std::move(fd));
  }
}

void SchedulerDaemon::AddConnectionFd(int fd) {
  {
    std::lock_guard<std::mutex> lock(adopted_mu_);
    adopted_fds_.emplace_back(fd);
  }
  loop_.Wakeup();
}

void SchedulerDaemon::CloseConnection(int64_t connection_id) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) {
    return;
  }
  loop_.Remove(it->second->fd());
  connections_.erase(it);
  Instruments().connections->Set(static_cast<double>(connections_.size()));
}

void SchedulerDaemon::OnConnectionEvent(int64_t connection_id,
                                        uint32_t events) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) {
    return;
  }
  FramedConnection& connection = *it->second;
  bool open = true;
  if (events & (EventLoop::kReadable | EventLoop::kError)) {
    FrameDecoder& decoder = connection.decoder();
    int64_t frames_before = decoder.frames_decoded();
    int64_t resyncs_before = decoder.resyncs();
    int64_t oversized_before = decoder.oversized_rejected();
    std::vector<std::string> frames;
    open = connection.ReadInto(&frames);
    Instruments().frames->Increment(decoder.frames_decoded() - frames_before);
    Instruments().resyncs->Increment(decoder.resyncs() - resyncs_before);
    Instruments().oversized->Increment(decoder.oversized_rejected() -
                                       oversized_before);
    for (const std::string& payload : frames) {
      std::string response = HandleRequest(connection_id, payload);
      if (!connection.SendFrame(response)) {
        open = false;
        break;
      }
    }
  }
  if (open && (events & EventLoop::kWritable)) {
    open = connection.FlushWrites();
  }
  if (!open || connection.closed()) {
    CloseConnection(connection_id);
    return;
  }
  loop_.SetWriteInterest(connection.fd(), connection.wants_write());
}

void SchedulerDaemon::EvictIdleConnections() {
  if (options_.idle_timeout_ms <= 0) {
    return;
  }
  auto deadline = SteadyClock::now() -
                  std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<int64_t> evict;
  for (const auto& [id, connection] : connections_) {
    if (connection->last_activity() < deadline) {
      evict.push_back(id);
    }
  }
  for (int64_t id : evict) {
    TETRI_LOG(kInfo) << "evicting idle connection " << id;
    CloseConnection(id);
  }
}

void SchedulerDaemon::Run() {
  auto next_cycle = SteadyClock::now();
  while (!stopped_) {
    auto now = SteadyClock::now();
    int timeout_ms = 0;
    if (now < next_cycle) {
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(next_cycle -
                                                                now)
              .count()) +
          1;
    }
    loop_.PollOnce(timeout_ms);
    AdoptPendingFds();
    if (int signo = ConsumeTerminationSignal(); signo != 0) {
      TETRI_LOG(kInfo) << "tetrischedd caught signal " << signo
                       << "; draining and checkpointing";
      stop_requested_.store(true, std::memory_order_relaxed);
    }
    if (drain_requested_.exchange(false)) {
      draining_ = true;
    }
    if (SteadyClock::now() >= next_cycle) {
      RunCycle();
      next_cycle += std::chrono::milliseconds(options_.cycle_period_ms);
      // Never schedule into the past (a slow cycle should not trigger a
      // burst of catch-up cycles: the virtual clock advances per cycle run,
      // not per wall period).
      if (next_cycle < SteadyClock::now()) {
        next_cycle = SteadyClock::now() +
                     std::chrono::milliseconds(options_.cycle_period_ms);
      }
      EvictIdleConnections();
    }
    if (stop_requested_.load(std::memory_order_relaxed)) {
      stopped_ = true;
    }
  }
  // Best-effort flush of queued responses (shutdown acks).
  for (auto& [id, connection] : connections_) {
    connection->FlushWrites();
  }
  FinalCheckpoint();
  PublishStatus();
  listeners_.clear();
  if (!options_.unix_socket_path.empty()) {
    // A stale socket file would make the next daemon's clients connect to
    // nothing; remove it now that no listener holds it.
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void SchedulerDaemon::RequestStop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

void SchedulerDaemon::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

// --- cycle driver ----------------------------------------------------------

void SchedulerDaemon::CompleteFinishedGangs() {
  for (auto& [job_id, entry] : jobs_) {
    if (entry.state != JobState::kRunning || entry.end > now_) {
      continue;
    }
    entry.state = JobState::kCompleted;
    --running_count_;
    ++completed_;
    Instruments().completed->Increment();
    DurableEvent event;
    event.kind = DurableEventKind::kGangComplete;
    event.time = now_;
    event.job = job_id;
    event.preferred = entry.preferred;
    event.runtime = entry.end - entry.start;
    Journal(event);
    if (ProvenanceRecorder::Global().enabled()) {
      ProvenanceRecord record;
      record.kind = ProvKind::kCompleted;
      record.time = now_;
      record.job = job_id;
      record.label = entry.preferred ? "preferred" : "fallback";
      ProvenanceRecorder::Global().Record(std::move(record));
    }
  }
}

void SchedulerDaemon::DrainIntakeIntoPending() {
  int space = options_.max_pending_jobs - static_cast<int>(pending_.size());
  if (space <= 0) {
    return;
  }
  int budget = std::min(space, options_.admission.admit_per_cycle);
  for (QueuedSubmission& submission : intake_.DrainRoundRobin(budget)) {
    JobId job_id = submission.job.id;
    auto it = jobs_.find(job_id);
    if (it == jobs_.end() || it->second.state != JobState::kQueued) {
      continue;  // cancelled while queued
    }
    JobEntry& entry = it->second;
    // Rayon admission for reservation seekers, with the simulator's
    // conservative fallback-runtime estimate.
    if (entry.job.wants_reservation) {
      RdlRequest request;
      request.requester = job_id;
      request.k = entry.job.k;
      request.duration = entry.job.EstimatedRuntime(/*preferred=*/false);
      request.window_start = now_;
      request.window_end = entry.job.deadline;
      ReservationDecision decision = rayon_.Submit(request);
      DurableEvent rayon_event;
      rayon_event.time = now_;
      rayon_event.job = job_id;
      if (decision.accepted) {
        entry.job.slo_class = SloClass::kSloAccepted;
        entry.job.reservation = decision.interval;
        rayon_event.kind = DurableEventKind::kRayonAdmit;
        rayon_event.k = request.k;
        rayon_event.interval = decision.interval;
      } else {
        entry.job.slo_class = SloClass::kSloUnreserved;
        rayon_event.kind = DurableEventKind::kRayonReject;
      }
      Journal(rayon_event);
      DurableEvent slo_event;
      slo_event.kind = DurableEventKind::kSloUpdate;
      slo_event.time = now_;
      slo_event.job = job_id;
      slo_event.slo_class = static_cast<uint8_t>(entry.job.slo_class);
      slo_event.interval = entry.job.reservation;
      Journal(slo_event);
    } else if (entry.job.deadline != kTimeNever) {
      entry.job.slo_class = SloClass::kSloUnreserved;
    }
    entry.state = JobState::kPending;
    pending_.push_back(job_id);
    DurableEvent event;
    event.kind = DurableEventKind::kServiceSubmit;
    event.time = now_;
    event.job = job_id;
    event.blob = JobSpecToJson(entry.job);
    Journal(event);
    if (ProvenanceRecorder::Global().enabled()) {
      ProvenanceRecord record;
      record.kind = ProvKind::kArrival;
      record.time = now_;
      record.job = job_id;
      record.label = tetrisched::ToString(entry.job.type);
      ProvenanceRecorder::Global().Record(std::move(record));
    }
  }
}

void SchedulerDaemon::DropJob(JobId job, JobState reason, const char* why) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  JobEntry& entry = it->second;
  if (entry.state == JobState::kRunning) {
    --running_count_;
  }
  entry.state = reason;
  entry.end = now_;
  if (reason == JobState::kCancelled) {
    ++cancelled_;
    Instruments().cancelled->Increment();
  } else {
    ++dropped_;
    Instruments().dropped->Increment();
  }
  pending_.erase(std::remove(pending_.begin(), pending_.end(), job),
                 pending_.end());
  DurableEvent event;
  event.kind = DurableEventKind::kJobDropped;
  event.time = now_;
  event.job = job;
  Journal(event);
  if (ProvenanceRecorder::Global().enabled()) {
    ProvenanceRecord record;
    record.kind = ProvKind::kDropped;
    record.time = now_;
    record.job = job;
    record.label = why;
    ProvenanceRecorder::Global().Record(std::move(record));
  }
}

void SchedulerDaemon::ApplyDecision(const SchedulerPolicy::Decision& decision) {
  // Two-phase commit (DESIGN.md §11): intent first, then per-mutation
  // records, then the applied marker with the policy's durable state.
  DurableEvent intent;
  intent.kind = DurableEventKind::kCommitIntent;
  intent.time = now_;
  for (const Placement& placement : decision.start_now) {
    GangRecord gang;
    gang.job = placement.job;
    gang.counts = placement.counts;
    gang.start = now_;
    gang.expected_end = now_ + placement.est_duration;
    gang.est_duration = placement.est_duration;
    intent.gangs.push_back(std::move(gang));
  }
  intent.drops = decision.drop;
  Journal(intent);

  for (const Placement& placement : decision.start_now) {
    auto it = jobs_.find(placement.job);
    if (it == jobs_.end() || it->second.state != JobState::kPending) {
      continue;
    }
    JobEntry& entry = it->second;
    entry.state = JobState::kRunning;
    entry.start = now_;
    entry.preferred = placement.preferred_belief;
    entry.placement = placement.counts;
    // Belief == truth in service mode (exact estimates), so the actual end
    // is the believed end.
    entry.end = now_ + entry.job.ActualRuntime(entry.preferred);
    ++running_count_;
    pending_.erase(
        std::remove(pending_.begin(), pending_.end(), placement.job),
        pending_.end());
    DurableEvent event;
    event.kind = DurableEventKind::kGangLaunch;
    event.time = now_;
    event.job = placement.job;
    event.gang.job = placement.job;
    event.gang.counts = placement.counts;
    event.gang.start = now_;
    event.gang.expected_end = now_ + placement.est_duration;
    event.gang.est_duration = placement.est_duration;
    Journal(event);
    if (ProvenanceRecorder::Global().enabled()) {
      ProvenanceRecord record;
      record.kind = ProvKind::kStart;
      record.time = now_;
      record.job = placement.job;
      record.label = entry.preferred ? "preferred" : "fallback";
      record.value = placement.value;
      ProvenanceRecorder::Global().Record(std::move(record));
    }
  }
  for (JobId job : decision.drop) {
    DropJob(job, JobState::kDropped, "deadline unreachable");
  }

  DurableEvent applied;
  applied.kind = DurableEventKind::kCommitApplied;
  applied.time = now_;
  applied.blob = scheduler_.ExportDurableState();
  Journal(applied);
}

void SchedulerDaemon::RunCycle() {
  if (cycles_ > 0) {
    now_ += options_.sim_seconds_per_cycle;
  }
  ++cycles_;
  CompleteFinishedGangs();
  // Draining closes intake to new submissions (HandleSubmit refuses them),
  // but the ones already acknowledged and queued are still admitted, or the
  // daemon could never reach drained.
  DrainIntakeIntoPending();

  std::vector<const Job*> pending_jobs;
  pending_jobs.reserve(pending_.size());
  for (JobId job : pending_) {
    auto it = jobs_.find(job);
    if (it != jobs_.end() && it->second.state == JobState::kPending) {
      pending_jobs.push_back(&it->second.job);
    }
  }
  std::vector<RunningHold> running;
  for (const auto& [job_id, entry] : jobs_) {
    if (entry.state != JobState::kRunning) {
      continue;
    }
    RunningHold hold;
    hold.job = job_id;
    hold.slo_class = entry.job.slo_class;
    hold.start = entry.start;
    hold.reservation_end = entry.job.slo_class == SloClass::kSloAccepted
                               ? entry.job.reservation.end
                               : kTimeNever;
    hold.counts = entry.placement;
    hold.expected_end = entry.end;
    running.push_back(std::move(hold));
  }

  if (!pending_jobs.empty() || !running.empty()) {
    SchedulerPolicy::Decision decision =
        scheduler_.OnCycle(now_, pending_jobs, running);
    // Defense in depth: the scheduler validates internally, but the
    // service revalidates before committing anything to its ledger (the
    // acceptance bar: zero violations across restarts).
    std::vector<PlanViolation> violations =
        ValidatePlan(cluster_, pending_jobs, running, decision.start_now);
    if (!violations.empty()) {
      validator_violations_ += static_cast<int64_t>(violations.size());
      for (const PlanViolation& violation : violations) {
        TETRI_LOG(kWarning) << "service plan violation (job "
                            << violation.job << "): " << violation.reason;
      }
      decision.start_now.clear();  // skip the cycle; replan next period
    }
    ApplyDecision(decision);
  }

  // The image holds every job the daemon has seen: build it only when a
  // checkpoint is due.
  if (persist_ != nullptr && persist_->CheckpointDue()) {
    persist_->Checkpoint(BuildRecoveredState());
  }
  Instruments().inflight->Set(static_cast<double>(
      intake_.size() + static_cast<int64_t>(pending_.size()) +
      running_count_));
  PublishStatus();
}

// --- protocol --------------------------------------------------------------

DaemonStatus SchedulerDaemon::UnlockedStatus() const {
  DaemonStatus status;
  status.now = now_;
  status.cycles = cycles_;
  status.queued = intake_.size();
  status.pending = static_cast<int64_t>(pending_.size());
  status.running = running_count_;
  status.completed = completed_;
  status.dropped = dropped_;
  status.cancelled = cancelled_;
  status.admitted_total = admitted_total_;
  status.rejected_total = rejected_total_;
  status.validator_violations = validator_violations_;
  status.draining = draining_;
  status.drained = draining_ && status.queued == 0 && status.pending == 0 &&
                   status.running == 0;
  return status;
}

void SchedulerDaemon::PublishStatus() {
  std::lock_guard<std::mutex> lock(status_mu_);
  published_status_ = UnlockedStatus();
}

DaemonStatus SchedulerDaemon::StatusSnapshot() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return published_status_;
}

JsonObj SchedulerDaemon::JobStatusJson(const JobEntry& entry) const {
  JsonObj obj;
  obj.Field("job", entry.job.id);
  obj.Field("state", ToString(entry.state));
  obj.Field("client", entry.client);
  obj.Field("type", tetrisched::ToString(entry.job.type));
  obj.Field("slo_class", tetrisched::ToString(entry.job.slo_class));
  obj.Field("k", entry.job.k);
  obj.Field("accepted_at", entry.accepted_at);
  if (entry.job.deadline != kTimeNever) {
    obj.Field("deadline", entry.job.deadline);
  }
  if (entry.start >= 0) {
    obj.Field("start", entry.start);
    obj.Field("preferred", entry.preferred);
  }
  if (entry.end >= 0 && entry.state != JobState::kRunning) {
    obj.Field("end", entry.end);
  } else if (entry.state == JobState::kRunning) {
    obj.Field("expected_end", entry.end);
  }
  if (!entry.placement.empty()) {
    JsonObj placement;
    for (const auto& [partition, count] : entry.placement) {
      placement.Field("p" + std::to_string(partition), count);
    }
    obj.FieldRaw("placement", placement.str());
  }
  return obj;
}

std::string SchedulerDaemon::HandleSubmit(const ServiceRequest& request,
                                          const std::string& client,
                                          int64_t connection_id) {
  if (draining_ || stop_requested_.load(std::memory_order_relaxed)) {
    ++rejected_total_;
    Instruments().rejected->Increment();
    return ErrorResponse(request.req_id, kErrDraining,
                         "daemon is draining; submissions are closed");
  }
  Job job;
  std::string error;
  const JsonValue* strl = request.body.Find("strl");
  if (strl != nullptr && strl->is_string()) {
    if (!JobFromStrlText(strl->string, now_, cluster_.num_partitions(), &job,
                         &error)) {
      return ErrorResponse(request.req_id, kErrBadRequest, error);
    }
    // Optional overrides alongside raw STRL (deadline_in, reservation).
    if (const JsonValue* rel = request.body.Find("deadline_in");
        rel != nullptr && rel->is_number() && rel->number > 0) {
      job.deadline = now_ + static_cast<SimTime>(rel->number);
    }
    job.wants_reservation = request.body.BoolOr("reservation", false) &&
                            job.deadline != kTimeNever;
  } else if (const JsonValue* spec = request.body.Find("job");
             spec != nullptr) {
    if (!JobSpecFromJson(*spec, now_, &job, &error)) {
      return ErrorResponse(request.req_id, kErrBadRequest, error);
    }
  } else {
    return ErrorResponse(request.req_id, kErrBadRequest,
                         "submit needs a \"job\" object or \"strl\" text");
  }
  job.id = next_job_id_++;
  job.submit = now_;

  QueuedSubmission submission;
  submission.job = job;
  submission.client = client;
  submission.connection_id = connection_id;
  AdmissionVerdict verdict = intake_.Offer(std::move(submission));
  if (!verdict.admitted) {
    ++rejected_total_;
    Instruments().rejected->Increment();
    --next_job_id_;  // id was never exposed; reuse it
    return ErrorResponse(request.req_id, kErrOverloaded, verdict.reason,
                         verdict.retry_after_ms);
  }
  JobEntry entry;
  entry.job = job;
  entry.state = JobState::kQueued;
  entry.client = client;
  entry.accepted_at = now_;
  jobs_.emplace(job.id, std::move(entry));
  ++admitted_total_;
  Instruments().admitted->Increment();
  Instruments().inflight->Set(static_cast<double>(
      intake_.size() + static_cast<int64_t>(pending_.size()) +
      running_count_));

  JsonObj extra;
  extra.Field("job", job.id);
  extra.Field("state", "queued");
  extra.Field("queue_depth", intake_.size());
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleStatus(const ServiceRequest& request) {
  if (const JsonValue* job = request.body.Find("job");
      job != nullptr && job->is_number()) {
    auto it = jobs_.find(static_cast<JobId>(job->number));
    if (it == jobs_.end()) {
      return ErrorResponse(request.req_id, kErrNotFound,
                           "no such job " +
                               std::to_string(static_cast<JobId>(
                                   job->number)));
    }
    return OkResponse(request.req_id, JobStatusJson(it->second));
  }
  DaemonStatus status = UnlockedStatus();
  JsonObj extra;
  extra.Field("now", status.now);
  extra.Field("cycles", status.cycles);
  extra.Field("queued", status.queued);
  extra.Field("pending", status.pending);
  extra.Field("running", status.running);
  extra.Field("completed", status.completed);
  extra.Field("dropped", status.dropped);
  extra.Field("cancelled", status.cancelled);
  extra.Field("admitted_total", status.admitted_total);
  extra.Field("rejected_total", status.rejected_total);
  extra.Field("validator_violations", status.validator_violations);
  extra.Field("draining", status.draining);
  extra.Field("drained", status.drained);
  extra.Field("clients", intake_.active_clients());
  extra.Field("connections", static_cast<int64_t>(connections_.size()));
  extra.Field("effective_plan_ahead", scheduler_.effective_plan_ahead());
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleCancel(const ServiceRequest& request) {
  const JsonValue* job_field = request.body.Find("job");
  if (job_field == nullptr || !job_field->is_number()) {
    return ErrorResponse(request.req_id, kErrBadRequest,
                         "cancel needs a numeric \"job\"");
  }
  JobId job = static_cast<JobId>(job_field->number);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return ErrorResponse(request.req_id, kErrNotFound,
                         "no such job " + std::to_string(job));
  }
  JobEntry& entry = it->second;
  switch (entry.state) {
    case JobState::kQueued:
      intake_.CancelJob(job);
      [[fallthrough]];
    case JobState::kPending:
    case JobState::kRunning:
      DropJob(job, JobState::kCancelled, "client cancel");
      break;
    case JobState::kCompleted:
    case JobState::kDropped:
    case JobState::kCancelled:
      return ErrorResponse(request.req_id, kErrConflict,
                           std::string("job already ") +
                               ToString(entry.state));
  }
  JsonObj extra;
  extra.Field("job", job);
  extra.Field("state", ToString(entry.state));
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleExplain(const ServiceRequest& request) {
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  if (!recorder.enabled()) {
    return ErrorResponse(request.req_id, kErrConflict,
                         "provenance recorder is disabled "
                         "(enable_provenance=false)");
  }
  ProvLog log = ParseProvenanceJsonl(recorder.ToJsonl());
  std::string report;
  if (const JsonValue* job = request.body.Find("job");
      job != nullptr && job->is_number()) {
    report = ExplainJob(log, static_cast<int64_t>(job->number));
  } else if (const JsonValue* cycle = request.body.Find("cycle");
             cycle != nullptr && cycle->is_number()) {
    report = ExplainCycle(log, static_cast<int64_t>(cycle->number));
  } else if (request.body.BoolOr("slo_misses", false)) {
    report = ExplainSloMisses(log);
  } else {
    report = ExplainSummary(log);
  }
  JsonObj extra;
  extra.Field("report", report);
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleMetrics(const ServiceRequest& request) {
  UpdateProcessMetrics();
  std::string format = request.body.StringOr("format", "json");
  JsonObj extra;
  if (format == "prom" || format == "prometheus") {
    extra.Field("format", "prom");
    extra.Field("metrics", GlobalMetrics().ToPrometheusText());
  } else if (format == "json") {
    extra.Field("format", "json");
    extra.FieldRaw("metrics", GlobalMetrics().ToJson());
  } else {
    return ErrorResponse(request.req_id, kErrBadRequest,
                         "unknown metrics format: " + format);
  }
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleRequest(int64_t connection_id,
                                           std::string_view payload) {
  auto started = SteadyClock::now();
  Instruments().requests->Increment();
  ServiceRequest request;
  std::string error_response;
  std::string response;
  if (!ParseServiceRequest(payload, &request, &error_response)) {
    response = std::move(error_response);
  } else {
    std::string client = request.client.empty()
                             ? "conn-" + std::to_string(connection_id)
                             : request.client;
    if (request.op == "submit") {
      response = HandleSubmit(request, client, connection_id);
    } else if (request.op == "status") {
      response = HandleStatus(request);
    } else if (request.op == "cancel") {
      response = HandleCancel(request);
    } else if (request.op == "explain") {
      response = HandleExplain(request);
    } else if (request.op == "metrics") {
      response = HandleMetrics(request);
    } else if (request.op == "drain") {
      draining_ = true;
      JsonObj extra;
      extra.Field("draining", true);
      response = OkResponse(request.req_id, extra);
    } else if (request.op == "shutdown") {
      stop_requested_.store(true, std::memory_order_relaxed);
      JsonObj extra;
      extra.Field("stopping", true);
      response = OkResponse(request.req_id, extra);
    } else {
      response = ErrorResponse(request.req_id, kErrUnknownOp,
                               "unknown op: " + request.op);
    }
  }
  Instruments().request_ms->Observe(MsSince(started));
  PublishStatus();
  return response;
}

}  // namespace tetrisched
