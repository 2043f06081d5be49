#include "src/service/daemon.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <tuple>

#include "src/common/logging.h"
#include "src/common/metrics.h"
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

std::unique_ptr<PersistenceManager> MakePersistence(
    const DaemonOptions& options) {
  if (options.storage == nullptr) {
    return nullptr;
  }
  PersistOptions persist_options;
  persist_options.snapshot_every = options.snapshot_every;
  return std::make_unique<PersistenceManager>(
      std::make_unique<ForwardingStorage>(options.storage), persist_options);
}

// Adds what `total` grew by since the last call to a registry counter.
void SyncCounter(Counter* counter, int64_t total, int64_t* published) {
  counter->Increment(total - *published);
  *published = total;
}

}  // namespace

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
      persist_(MakePersistence(options_)),
      runtime_(cluster_,
               RuntimeParams{.rayon = &rayon_, .persist = persist_.get()}),
      intake_(options_.admission) {
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
  now_ = result.state.checkpoint_time;
  JobId max_id = 0;
  for (const auto& [job_id, spec_json] : result.state.service_jobs) {
    JsonValue spec;
    Job job;
    std::string error;
    if (!JsonParse(spec_json, &spec, &error) ||
        !JobSpecFromJson(spec, now_, &job, &error)) {
      TETRI_LOG(kWarning) << "recovery: bad job spec for job " << job_id
                          << ": " << error;
      continue;
    }
    job.id = job_id;
    max_id = std::max(max_id, job_id);
    runtime_.AddJob(std::move(job));
    clients_.push_back("(recovered)");
  }
  next_job_id_ = std::max<JobId>(next_job_id_, max_id + 1);
  if (!result.state.policy_state.empty()) {
    scheduler_.ImportDurableState(result.state.policy_state);
  }
  std::tie(recovered_pending_, recovered_running_) =
      runtime_.Resume(std::move(result.state));
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

void SchedulerDaemon::FinalCheckpoint() {
  if (persist_ == nullptr) {
    return;
  }
  runtime_.Checkpoint(now_);
  TETRI_LOG(kInfo) << "tetrischedd final checkpoint at t=" << now_ << " ("
                   << runtime_.num_jobs() << " jobs tracked)";
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

void SchedulerDaemon::DrainIntakeIntoPending() {
  int space = options_.max_pending_jobs -
              static_cast<int>(runtime_.count(JobState::kPending));
  if (space <= 0) {
    return;
  }
  int budget = std::min(space, options_.admission.admit_per_cycle);
  for (QueuedSubmission& submission : intake_.DrainRoundRobin(budget)) {
    const int i = runtime_.index_of(submission.job.id);
    if (i >= 0 && runtime_.state(i) == JobState::kQueued) {
      runtime_.Admit(i, now_);
    }
  }
}

void SchedulerDaemon::RunCycle() {
  if (cycles_ > 0) {
    now_ += options_.sim_seconds_per_cycle;
  }
  ++cycles_;
  runtime_.CompleteUntil(now_);
  // Draining closes intake to new submissions (HandleSubmit refuses them),
  // but the ones already acknowledged and queued are still admitted, or the
  // daemon could never reach drained.
  DrainIntakeIntoPending();

  std::vector<const Job*> pending;
  std::vector<RunningHold> running;
  runtime_.BuildView(now_, &pending, &running);
  if (!pending.empty() || !running.empty()) {
    runtime_.Commit(now_, scheduler_.OnCycle(now_, pending, running),
                    scheduler_, launch_);
  }
  PublishCounters();
  PublishStatus();
}

// --- protocol --------------------------------------------------------------

DaemonStatus SchedulerDaemon::UnlockedStatus() const {
  DaemonStatus status;
  status.now = now_;
  status.cycles = cycles_;
  status.queued = intake_.size();
  status.pending = runtime_.count(JobState::kPending);
  status.running = runtime_.count(JobState::kRunning);
  status.completed = runtime_.count(JobState::kCompleted);
  status.dropped = runtime_.count(JobState::kDropped);
  status.cancelled = runtime_.count(JobState::kCancelled);
  status.admitted_total = admitted_total_;
  status.rejected_total = rejected_total_;
  status.validator_violations = runtime_.counters().validator_violations;
  status.draining = draining_;
  status.drained = draining_ && status.queued == 0 && status.pending == 0 &&
                   status.running == 0;
  return status;
}

void SchedulerDaemon::PublishCounters() {
  const DaemonStatus status = UnlockedStatus();
  ServiceInstruments& instruments = Instruments();
  SyncCounter(instruments.completed, status.completed, &published_completed_);
  SyncCounter(instruments.dropped, status.dropped, &published_dropped_);
  SyncCounter(instruments.cancelled, status.cancelled, &published_cancelled_);
  instruments.inflight->Set(
      static_cast<double>(status.queued + status.pending + status.running));
}

void SchedulerDaemon::PublishStatus() {
  std::lock_guard<std::mutex> lock(status_mu_);
  published_status_ = UnlockedStatus();
}

DaemonStatus SchedulerDaemon::StatusSnapshot() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return published_status_;
}

JsonObj SchedulerDaemon::JobStatusJson(int index) const {
  const Job& job = runtime_.job(index);
  const JobState state = runtime_.state(index);
  const JobOutcome& outcome = runtime_.outcome(index);
  JsonObj obj;
  obj.Field("job", job.id);
  obj.Field("state", ToString(state));
  obj.Field("client", clients_[index]);
  obj.Field("type", ToString(job.type));
  obj.Field("slo_class", ToString(job.slo_class));
  obj.Field("k", job.k);
  obj.Field("accepted_at", job.submit);
  if (job.deadline != kTimeNever) {
    obj.Field("deadline", job.deadline);
  }
  if (outcome.start_time >= 0) {
    obj.Field("start", outcome.start_time);
    obj.Field("preferred", outcome.preferred);
  }
  if (state == JobState::kRunning) {
    obj.Field("expected_end", runtime_.running().at(job.id).actual_end);
  } else if (runtime_.end_time(index) >= 0) {
    obj.Field("end", runtime_.end_time(index));
  }
  if (!outcome.placement.empty()) {
    JsonObj placement;
    for (const auto& [partition, count] : outcome.placement) {
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
  // Journaled before the reply, so a job still in the intake queue
  // survives a restart.
  DurableEvent accepted;
  accepted.kind = DurableEventKind::kServiceSubmit;
  accepted.time = now_;
  accepted.job = job.id;
  accepted.blob = JobSpecToJson(job);
  runtime_.Journal(accepted);
  runtime_.AddJob(job);
  clients_.push_back(client);
  ++admitted_total_;
  Instruments().admitted->Increment();
  PublishCounters();

  JsonObj extra;
  extra.Field("job", job.id);
  extra.Field("state", "queued");
  extra.Field("queue_depth", intake_.size());
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleStatus(const ServiceRequest& request) {
  if (const JsonValue* job = request.body.Find("job");
      job != nullptr && job->is_number()) {
    const JobId id = static_cast<JobId>(job->number);
    const int index = runtime_.index_of(id);
    if (index < 0) {
      return ErrorResponse(request.req_id, kErrNotFound,
                           "no such job " + std::to_string(id));
    }
    return OkResponse(request.req_id, JobStatusJson(index));
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
  const int index = runtime_.index_of(job);
  if (index < 0) {
    return ErrorResponse(request.req_id, kErrNotFound,
                         "no such job " + std::to_string(job));
  }
  if (runtime_.state(index) == JobState::kQueued) {
    intake_.CancelJob(job);
  }
  if (!runtime_.Cancel(index, now_)) {
    return ErrorResponse(request.req_id, kErrConflict,
                         std::string("job already ") +
                             ToString(runtime_.state(index)));
  }
  PublishCounters();
  JsonObj extra;
  extra.Field("job", job);
  extra.Field("state", ToString(runtime_.state(index)));
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
