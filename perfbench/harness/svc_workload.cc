// svc_openloop: an in-process tetrischedd serving an open-loop load.
//
// The daemon runs on its own thread with a journal in a MemoryJournalStorage
// the benchmark owns (wrapped to time every AppendJournal) and provenance at
// its default (on). One generator thread sends id-tagged requests over
// kConnections Unix-socket connections, pipelining them: it never waits for
// a reply before sending the next request, so a stalled daemon sees its
// queue grow. A request's latency runs from the moment it was due to be sent
// to the moment its reply was read.
//
// The submissions replay a seeded GS MIX + GS HET job trace generated for
// the daemon's cluster at kClusterLoad: a job is due when its submit time
// comes up on the daemon's own clock (cycle_period_ms of wall time per
// sim_seconds_per_cycle). `status` reads arrive as a separate seeded Poisson
// stream. A ladder rung replays the same trace c times faster with every
// runtime and deadline c times shorter, so the offered cluster load stays at
// kClusterLoad and only the request rate grows.
//
// The generator sleeps until kSpin before a request is due and polls
// without blocking from there, so that its own timer and wake-up lag do not
// count as request latency.
//
// Phases: a warm-up, the reference phase at the trace's own pace (request
// latency and the daemon's cycle figures pooled over the phase, schedule
// quality of the jobs submitted in it), then the rate ladder,
// stopping at the first rung that misses the latency limit, refuses or
// loses a request, or lets the backlog grow. Finally the daemon drains and
// every acknowledged job is checked in the final per-job `status`, and a
// second, small daemon probes drain with work still queued.

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.h"
#include "harness/tracer.h"
#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/event_loop.h"
#include "src/net/socket.h"
#include "src/persist/journal.h"
#include "src/service/daemon.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using tetrisched::JsonObj;
using tetrisched::JsonValue;

constexpr int kConnections = 3;
// `status` reads per submission. Neither the paper nor this repository
// gives a request mix for a scheduler's API; one status poll per three
// submissions (a quarter of the requests) is an assumption.
constexpr double kStatusPerSubmit = 1.0 / 3.0;
// Offered load of the submitted jobs as a share of the daemon cluster's
// node-seconds (GenerateWorkload's target_load; half from GS MIX, half from
// GS HET). A quarter of capacity leaves room for the rounding at high rungs
// (see kLadder), so the cluster does not cap the ladder.
constexpr double kClusterLoad = 0.25;
// Latency limit on the p99 request latency for a ladder rung to pass.
constexpr double kLatencyLimitMs = 50.0;
// Ladder rungs as trace compression factors (6% steps), kRungSeconds each.
// Runtimes are whole virtual seconds and a gang holds its nodes for whole
// cycles, so at high factors short jobs round up and the effective cluster
// load rises above kClusterLoad; the rung table prints the running count.
// The ladder starts at x10 to keep a run short: a fresh daemon passed every
// rung up to x15 in every climb seen.
constexpr double kLadder[] = {10, 10.5, 11, 12, 12.5, 13, 14, 15, 16, 17,
                              18, 19,   20, 21, 22.5, 24, 25, 26.5, 28, 30,
                              32, 34,   36, 38, 40,   42.5, 45, 47.5, 50};
constexpr double kRungSeconds = 0.5;
// The ladder is climbed kClimbs times, each by a fresh daemon on its own
// stretch of the trace, and max_ok_rps is the median of the climbs. A climb
// ends in a sudden collapse (the backlog swells once cycles overrun the
// period) whose rung varies with the bursts it meets; and a daemon's cycles
// slow down with the number of jobs it has served, so a climb that did not
// start fresh would depend on what ran before it.
constexpr int kClimbs = 3;
constexpr double kRequestTimeoutMs = 2000.0;
// Length of the reference phase as a share of --seconds.
constexpr double kReferenceShare = 0.75;
// How close to a due request the generator polls without blocking. Sleeping
// in ppoll until the due time made the median request ~0.13 ms late, over
// half of the ~0.23 ms median latency. It does not spin while waiting for a
// reply: the woken daemon thread then shared a core with the spinning
// generator and the median latency rose to ~0.6 ms.
constexpr auto kSpin = std::chrono::microseconds(500);

// Daemon clock: the paper's 4 s cycle (sim_seconds_per_cycle) every 10 ms of
// wall time, 400x real time. At kClusterLoad the trace then submits about
// 87 jobs per wall second on this cluster, so a 34 s reference phase covers
// ~2,900 jobs (~3,900 requests, ~2,000 non-empty cycles), and each solve is
// clamped to the 10 ms period. The daemon's cycle times depend on
// the jobs it holds, so the phase should cover many.
constexpr int64_t kCyclePeriodMs = 10;
constexpr int64_t kSimSecondsPerCycle = 4;
constexpr double kWallSecondsPerVirtual =
    kCyclePeriodMs / 1000.0 / kSimSecondsPerCycle;
constexpr int kAdmitPerCycle = 256;

tetrisched::DaemonOptions MakeDaemonOptions(const std::string& socket_path,
                                            tetrisched::JournalStorage* storage,
                                            int admit_per_cycle) {
  tetrisched::DaemonOptions options;
  options.unix_socket_path = socket_path;
  options.racks = 8;
  options.nodes_per_rack = 32;
  options.gpu_racks = 2;
  options.cycle_period_ms = kCyclePeriodMs;
  options.sim_seconds_per_cycle = kSimSecondsPerCycle;
  options.admission.max_queued = 4096;
  options.admission.admit_per_cycle = admit_per_cycle;
  options.max_pending_jobs = 1024;
  options.scheduler.milp.num_threads = 1;
  options.storage = storage;
  return options;
}

// Bucket bounds for the daemon's cycle-time histogram: 2% geometric steps
// from 1 us to 60 s, so a percentile read off the buckets lies within 1% of
// the sample. A histogram's bounds are fixed when it is first created, so
// the workload registers these before any daemon runs a cycle.
std::vector<double> FineCycleBucketsMs() {
  std::vector<double> bounds;
  for (double bound = 1e-3; bound < 6e4; bound *= 1.02) {
    bounds.push_back(bound);
  }
  return bounds;
}

// MemoryJournalStorage with every append timed and counted (called on the
// daemon thread, read by the benchmark thread).
class TimedStorage : public tetrisched::JournalStorage {
 public:
  explicit TimedStorage(Tracer* tracer) : tracer_(tracer) {}

  void AppendJournal(std::string_view bytes) override {
    Tracer::Scope span(tracer_, "persist.append", -1);
    Clock::time_point start = Clock::now();
    inner_.AppendJournal(bytes);
    ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count(),
                  std::memory_order_relaxed);
    appends_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<int64_t>(bytes.size()),
                     std::memory_order_relaxed);
  }
  std::string ReadJournal() const override { return inner_.ReadJournal(); }
  void TruncateJournal() override { inner_.TruncateJournal(); }
  void WriteSnapshot(std::string_view bytes) override {
    inner_.WriteSnapshot(bytes);
  }
  std::string ReadSnapshot() const override { return inner_.ReadSnapshot(); }

  struct Counts {
    int64_t appends = 0;
    int64_t bytes = 0;
    int64_t ns = 0;
  };
  Counts counts() const {
    return {appends_.load(std::memory_order_relaxed),
            bytes_.load(std::memory_order_relaxed),
            ns_.load(std::memory_order_relaxed)};
  }

 private:
  Tracer* tracer_;
  tetrisched::MemoryJournalStorage inner_;
  std::atomic<int64_t> appends_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> ns_{0};
};

// The job trace: seeded GS MIX (SLO jobs with deadlines and reservations,
// best-effort jobs) and GS HET (adds GPU and MPI types) jobs, each generated
// for the daemon's cluster at half of kClusterLoad, merged by submit time
// and cut where the shorter of the two ends.
struct JobTrace {
  std::vector<tetrisched::Job> jobs;
  tetrisched::SimTime period = 1;  // virtual seconds before the trace repeats

  // Virtual submit time of the index-th submission; the trace repeats.
  double SubmitTime(int64_t index) const {
    const int64_t n = static_cast<int64_t>(jobs.size());
    return static_cast<double>(jobs[index % n].submit) +
           static_cast<double>((index / n) * period);
  }
};

JobTrace MakeTrace(uint64_t seed, int jobs_per_kind) {
  const tetrisched::DaemonOptions daemon = MakeDaemonOptions("", nullptr, 1);
  tetrisched::Cluster cluster = tetrisched::MakeUniformCluster(
      daemon.racks, daemon.nodes_per_rack, daemon.gpu_racks);
  JobTrace trace;
  tetrisched::SimTime end = tetrisched::kTimeNever;
  for (tetrisched::WorkloadKind kind :
       {tetrisched::WorkloadKind::kGsMix, tetrisched::WorkloadKind::kGsHet}) {
    tetrisched::WorkloadParams params;
    params.kind = kind;
    params.seed = seed * 2 + (kind == tetrisched::WorkloadKind::kGsHet);
    params.num_jobs = jobs_per_kind;
    params.target_load = kClusterLoad / 2;
    std::vector<tetrisched::Job> jobs =
        tetrisched::GenerateWorkload(cluster, params);
    end = std::min(end, jobs.back().submit);
    trace.jobs.insert(trace.jobs.end(), jobs.begin(), jobs.end());
  }
  std::erase_if(trace.jobs, [&](const tetrisched::Job& job) {
    return job.submit > end;
  });
  std::stable_sort(trace.jobs.begin(), trace.jobs.end(),
                   [](const tetrisched::Job& a, const tetrisched::Job& b) {
                     return a.submit < b.submit;
                   });
  trace.period = end + 1;
  return trace;
}

// The `job` body of a submission, with runtime and deadline slack shortened
// `compression` times.
std::string JobSpec(const tetrisched::Job& job, double compression) {
  const int64_t runtime = std::max<int64_t>(
      1, std::llround(static_cast<double>(job.actual_runtime) / compression));
  JsonObj spec;
  spec.Field("type", tetrisched::ToString(job.type));
  spec.Field("k", job.k);
  spec.Field("runtime", runtime);
  spec.Field("slowdown", job.slowdown);
  if (job.deadline != tetrisched::kTimeNever) {
    const double slack = static_cast<double>(job.deadline - job.submit) /
                         static_cast<double>(job.actual_runtime);
    spec.Field("deadline_in",
               std::max<int64_t>(1, std::llround(slack * runtime)));
    spec.Field("reservation", job.wants_reservation);
  }
  return spec.str();
}

struct Outstanding {
  bool submit = false;
  Clock::time_point due{};
};

// What the requests of one phase produced.
struct PhaseResult {
  double compression = 1.0;
  double seconds = 0.0;  // wall time from the first due request to the last reply
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t refused = 0;    // "overloaded"
  int64_t errors = 0;     // any other error reply
  int64_t timed_out = 0;  // no reply within kRequestTimeoutMs
  int64_t bytes_out = 0;
  int64_t bytes_in = 0;
  std::vector<double> latency_ms;  // every request (misses count as limit)
  std::vector<double> submit_ms;
  std::vector<double> status_ms;
  std::vector<double> late_ms;  // send time minus due time
  std::vector<int64_t> acked_jobs;
  int64_t failed() const { return refused + errors + timed_out; }
  double sent_per_s() const { return seconds > 0.0 ? sent / seconds : 0.0; }
  double ok_per_s() const { return seconds > 0.0 ? ok / seconds : 0.0; }

  void Append(const PhaseResult& other) {
    seconds += other.seconds;
    sent += other.sent;
    ok += other.ok;
    refused += other.refused;
    errors += other.errors;
    timed_out += other.timed_out;
    bytes_out += other.bytes_out;
    bytes_in += other.bytes_in;
    for (auto [to, from] :
         {std::pair{&latency_ms, &other.latency_ms},
          std::pair{&submit_ms, &other.submit_ms},
          std::pair{&status_ms, &other.status_ms},
          std::pair{&late_ms, &other.late_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    acked_jobs.insert(acked_jobs.end(), other.acked_jobs.begin(),
                      other.acked_jobs.end());
  }
};

class LoadGenerator {
 public:
  // `trace` must outlive the generator. Submissions start at trace job
  // `first_job`.
  LoadGenerator(const JobTrace& trace, uint64_t seed, Tracer* tracer,
                int64_t first_job = 0)
      : trace_(trace),
        status_gap_s_(static_cast<double>(trace.period) /
                      static_cast<double>(trace.jobs.size()) /
                      kStatusPerSubmit * kWallSecondsPerVirtual),
        next_job_(first_job),
        rng_(seed),
        tracer_(tracer) {}

  bool Connect(const std::string& path) {
    for (int c = 0; c < kConnections; ++c) {
      tetrisched::UniqueFd fd = tetrisched::ConnectUnix(path);
      if (!fd.valid() || !tetrisched::SetNonBlocking(fd.get())) {
        return false;
      }
      connections_.push_back(std::make_unique<tetrisched::FramedConnection>(
          std::move(fd), tetrisched::kDefaultMaxFrameBytes, c));
    }
    return true;
  }

  // Replays the trace `compression` times faster than the daemon's clock
  // for `seconds`, from where the previous phase stopped, with `status`
  // reads in between; then waits for the outstanding replies.
  PhaseResult Run(double compression, double seconds) {
    // Timer slack of 1 ns instead of the default 50 us while the load runs;
    // restored on return, so a daemon thread started later keeps the
    // default.
    const int slack = prctl(PR_GET_TIMERSLACK);
    prctl(PR_SET_TIMERSLACK, 1UL);
    PhaseResult result;
    result.compression = compression;
    const double wall_per_virtual = kWallSecondsPerVirtual / compression;
    const double status_gap_s = status_gap_s_ / compression;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + Seconds(seconds);
    const double origin = trace_.SubmitTime(next_job_);
    auto submit_due = [&] {
      return start +
             Seconds((trace_.SubmitTime(next_job_) - origin) * wall_per_virtual);
    };
    Clock::time_point next_submit = submit_due();
    Clock::time_point next_status =
        start + Seconds(rng_.Exponential(status_gap_s));
    while (transport_ok_) {
      Clock::time_point now = Clock::now();
      for (Clock::time_point due = std::min(next_submit, next_status);
           due <= now && due < end && transport_ok_;
           due = std::min(next_submit, next_status)) {
        if (next_submit <= next_status) {
          const tetrisched::Job& job =
              trace_.jobs[next_job_ % trace_.jobs.size()];
          Send("submit", JsonObj().FieldRaw("job", JobSpec(job, compression)),
               due, &result);
          ++next_job_;
          next_submit = submit_due();
        } else {
          Send("status", JsonObj(), due, &result);
          next_status += Seconds(rng_.Exponential(status_gap_s));
        }
      }
      const Clock::time_point next = std::min(next_submit, next_status);
      if (next >= end && outstanding_.empty()) {
        break;
      }
      ExpireTimedOut(&result);
      Clock::time_point wake =
          next < end ? next - kSpin : now + std::chrono::milliseconds(5);
      PollReplies(wake, &result);
    }
    result.seconds = MsBetween(start, Clock::now()) / 1000.0;
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack));
    return result;
  }

  // One blocking round trip on connection 0 (control requests after load).
  std::optional<JsonValue> Call(const std::string& op, const JsonObj& fields) {
    int64_t id = next_id_++;
    std::string request = BuildRequest(op, id, fields);
    if (!connections_[0]->SendFrame(request)) {
      return std::nullopt;
    }
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      pollfd pfd{connections_[0]->fd(),
                 static_cast<short>(
                     POLLIN | (connections_[0]->wants_write() ? POLLOUT : 0)),
                 0};
      if (::poll(&pfd, 1, 50) < 0) {
        return std::nullopt;
      }
      if ((pfd.revents & POLLOUT) && !connections_[0]->FlushWrites()) {
        return std::nullopt;
      }
      std::vector<std::string> frames;
      bool open = connections_[0]->ReadInto(&frames);
      for (const std::string& frame : frames) {
        JsonValue reply;
        if (tetrisched::JsonParse(frame, &reply) &&
            reply.IntOr("id", -1) == id) {
          return reply;
        }
      }
      if (!open) {
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  bool transport_ok() const { return transport_ok_; }

 private:
  std::string BuildRequest(const std::string& op, int64_t id,
                           const JsonObj& fields) const {
    std::string request = JsonObj()
                              .Field("v", static_cast<int64_t>(1))
                              .Field("op", op)
                              .Field("id", id)
                              .Field("client", "loadgen")
                              .str();
    if (!fields.empty()) {
      std::string extra = fields.str();
      request.pop_back();  // splice the fields into the same object
      request += "," + extra.substr(1);
    }
    return request;
  }

  static Clock::duration Seconds(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  void Send(const std::string& op, const JsonObj& fields,
            Clock::time_point due, PhaseResult* result) {
    const bool submit = op == "submit";
    const int64_t id = next_id_++;
    const std::string request = BuildRequest(op, id, fields);
    tetrisched::FramedConnection& connection =
        *connections_[id % kConnections];
    Clock::time_point sent = Clock::now();
    if (!connection.SendFrame(request)) {
      transport_ok_ = false;
      return;
    }
    ++result->sent;
    result->bytes_out +=
        static_cast<int64_t>(request.size() + tetrisched::kFrameHeaderBytes);
    result->late_ms.push_back(MsBetween(due, sent));
    outstanding_[id] = Outstanding{submit, due};
  }

  void PollReplies(Clock::time_point wake, PhaseResult* result) {
    pollfd pfds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      pfds[c] = pollfd{connections_[c]->fd(),
                       static_cast<short>(
                           POLLIN |
                           (connections_[c]->wants_write() ? POLLOUT : 0)),
                       0};
    }
    Clock::duration wait = std::max(Clock::duration::zero(),
                                    wake - Clock::now());
    timespec timeout{};
    timeout.tv_sec = std::chrono::duration_cast<std::chrono::seconds>(wait)
                         .count();
    timeout.tv_nsec = static_cast<long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count() %
        1000000000);
    if (::ppoll(pfds, kConnections, &timeout, nullptr) <= 0) {
      return;
    }
    for (int c = 0; c < kConnections; ++c) {
      if ((pfds[c].revents & POLLOUT) && !connections_[c]->FlushWrites()) {
        transport_ok_ = false;
      }
      if (!(pfds[c].revents & (POLLIN | POLLERR | POLLHUP))) {
        continue;
      }
      std::vector<std::string> frames;
      if (!connections_[c]->ReadInto(&frames)) {
        transport_ok_ = false;
      }
      Clock::time_point received = Clock::now();
      for (const std::string& frame : frames) {
        result->bytes_in +=
            static_cast<int64_t>(frame.size() + tetrisched::kFrameHeaderBytes);
        JsonValue reply;
        if (!tetrisched::JsonParse(frame, &reply)) {
          ++result->errors;
          continue;
        }
        auto it = outstanding_.find(reply.IntOr("id", -1));
        if (it == outstanding_.end()) {
          continue;  // already counted as timed out
        }
        const double ms = MsBetween(it->second.due, received);
        int span = tracer_->Record(
            it->second.submit ? "client.submit" : "client.status",
            it->second.due, received, it->first);
        tracer_->Attr(span, "connection", c);
        if (reply.BoolOr("ok", false)) {
          ++result->ok;
          result->latency_ms.push_back(ms);
          (it->second.submit ? result->submit_ms : result->status_ms)
              .push_back(ms);
          if (it->second.submit) {
            result->acked_jobs.push_back(reply.IntOr("job", -1));
          }
        } else {
          if (reply.StringOr("error", "") == "overloaded") {
            ++result->refused;
          } else {
            ++result->errors;
          }
          // A refused or failed request misses any latency limit.
          result->latency_ms.push_back(std::max(ms, 10.0 * kLatencyLimitMs));
        }
        outstanding_.erase(it);
      }
    }
  }

  void ExpireTimedOut(PhaseResult* result) {
    Clock::time_point now = Clock::now();
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      if (MsBetween(it->second.due, now) > kRequestTimeoutMs) {
        ++result->timed_out;
        result->latency_ms.push_back(kRequestTimeoutMs);
        it = outstanding_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const JobTrace& trace_;
  // Mean wall seconds between `status` reads at compression 1.
  const double status_gap_s_;
  int64_t next_job_;
  tetrisched::Rng rng_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<tetrisched::FramedConnection>> connections_;
  std::map<int64_t, Outstanding> outstanding_;
  int64_t next_id_ = 1;
  bool transport_ok_ = true;
};

// CPUs for the load generator (the benchmark's main thread) and for each
// daemon thread: the last two this process may run on, or none (-1) with
// fewer than two. Pinned apart, the daemon thread never shares a core with
// the generator, which polls without blocking near due times and all the
// time at the ladder's top rates; left to the scheduler, the two sometimes
// shared one, and a run's capacity moved with where they landed.
std::pair<int, int> GeneratorAndDaemonCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus.push_back(cpu);
      }
    }
  }
  if (cpus.size() < 2) {
    return {-1, -1};
  }
  return {cpus[cpus.size() - 2], cpus.back()};
}

void PinThread(pthread_t thread, int cpu) {
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(thread, sizeof(set), &set);
}

// Daemon thread plus its storage; stops and joins on destruction.
class ServedDaemon {
 public:
  ServedDaemon(const std::string& socket_path, Tracer* tracer,
               int admit_per_cycle = kAdmitPerCycle)
      : storage_(tracer),
        daemon_(MakeDaemonOptions(socket_path, &storage_, admit_per_cycle)) {}
  ~ServedDaemon() { Stop(); }
  ServedDaemon(const ServedDaemon&) = delete;
  ServedDaemon& operator=(const ServedDaemon&) = delete;

  bool Start() { return daemon_.Start(); }
  void Serve() {
    thread_ = std::thread([this] { daemon_.Run(); });
    PinThread(thread_.native_handle(), GeneratorAndDaemonCpus().second);
  }
  void Stop() {
    if (thread_.joinable()) {
      daemon_.RequestStop();
      thread_.join();
    }
  }
  tetrisched::SchedulerDaemon& daemon() { return daemon_; }
  const TimedStorage& storage() const { return storage_; }

 private:
  TimedStorage storage_;
  tetrisched::SchedulerDaemon daemon_;
  std::thread thread_;
};

int64_t Backlog(const tetrisched::DaemonStatus& status) {
  return status.queued + status.pending;
}

const JsonValue* Histogram(const JsonValue& metrics, const std::string& name) {
  const JsonValue* histograms = metrics.Find("histograms");
  return histograms == nullptr ? nullptr : histograms->Find(name);
}

double HistogramField(const JsonValue& metrics, const std::string& name,
                      const std::string& field) {
  const JsonValue* h = Histogram(metrics, name);
  return h == nullptr ? 0.0 : h->NumberOr(field, 0.0);
}

// The daemon's cumulative cycle-time histogram from a `metrics` reply.
std::optional<tetrisched::HistogramSnapshot> ReadCycleHistogram(
    const std::optional<JsonValue>& reply) {
  const JsonValue* metrics =
      reply.has_value() ? reply->Find("metrics") : nullptr;
  const JsonValue* h =
      metrics == nullptr ? nullptr : Histogram(*metrics, "tetrisched_cycle_ms");
  const JsonValue* buckets = h == nullptr ? nullptr : h->Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return std::nullopt;
  }
  tetrisched::HistogramSnapshot snapshot;
  snapshot.count = h->IntOr("count", 0);
  snapshot.min = h->NumberOr("min", 0.0);
  snapshot.max = h->NumberOr("max", 0.0);
  for (const JsonValue& bucket : buckets->items) {
    const JsonValue* le = bucket.Find("le");
    if (le != nullptr && le->is_number()) {
      snapshot.bounds.push_back(le->number);
    }
    snapshot.buckets.push_back(bucket.IntOr("count", 0));
  }
  return snapshot;
}

// Whether a histogram read back from a `metrics` reply has `bounds` (as
// printed there, to nine significant digits).
bool AtResolution(const std::optional<tetrisched::HistogramSnapshot>& h,
                  const std::vector<double>& bounds) {
  if (!h.has_value() || h->bounds.size() != bounds.size()) {
    return false;
  }
  for (size_t b = 0; b < bounds.size(); ++b) {
    if (std::abs(h->bounds[b] - bounds[b]) > 1e-6 * bounds[b]) {
      return false;
    }
  }
  return true;
}

// A percentile of the cycles counted between two snapshots of the daemon's
// cycle histogram (FineCycleBucketsMs), interpolated by rank inside the 2%
// bucket that holds it. As for the simulation workloads, the percentile is
// lowered until at least ten samples lie above it.
double WindowPercentile(const tetrisched::HistogramSnapshot& before,
                        const tetrisched::HistogramSnapshot& after,
                        double want) {
  const int64_t count = after.count - before.count;
  if (count <= 0) {
    return 0.0;
  }
  const double p = std::max(0.0, std::min(want, 100.0 * (1.0 - 10.0 / count)));
  const double rank = p / 100.0 * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    const int64_t in_bucket = after.buckets[b] - before.buckets[b];
    if (in_bucket > 0 && static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lo = after.bounds[b == 0 ? 0 : b - 1];
      const double hi = after.bounds[std::min(b, after.bounds.size() - 1)];
      return lo + (rank - static_cast<double>(cumulative)) / in_bucket *
                      (hi - lo);
    }
    cumulative += in_bucket;
  }
  return after.bounds.back();
}

double CounterValue(const JsonValue& metrics, const std::string& name) {
  const JsonValue* counters = metrics.Find("counters");
  return counters == nullptr ? 0.0 : counters->NumberOr(name, 0.0);
}

// Sends `drain` once the intake queue is empty, waits until the daemon has
// drained, and checks that every acknowledged submission ended completed or
// dropped in the per-job `status` (passed to `per_job`) and that the daemon
// counted no validator violations. A draining daemon stops moving its intake
// queue into the pending set (the drain probe shows it), so the gate waits
// for the queue to empty first. Returns the number queued when it started.
int64_t DrainAndCheck(ServedDaemon& served, LoadGenerator& generator,
                      const std::vector<int64_t>& acked, Report* report,
                      const std::function<void(int64_t, const JsonValue&)>&
                          per_job) {
  tetrisched::SchedulerDaemon& daemon = served.daemon();
  const int64_t queued_at_stop = daemon.StatusSnapshot().queued;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (daemon.StatusSnapshot().queued > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!generator.Call("drain", JsonObj()).has_value()) {
    report->Violation("drain request failed");
  }
  while (!daemon.StatusSnapshot().drained && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const tetrisched::DaemonStatus status = daemon.StatusSnapshot();
  if (!status.drained) {
    report->Violation("daemon did not drain within 60 s");
  }
  if (status.validator_violations != 0) {
    report->Violation("daemon counted validator violations");
  }
  if (status.admitted_total != static_cast<int64_t>(acked.size())) {
    report->Violation("daemon admitted " +
                      std::to_string(status.admitted_total) +
                      " jobs but acknowledged " +
                      std::to_string(acked.size()));
  }
  for (int64_t job : acked) {
    std::optional<JsonValue> reply =
        generator.Call("status", JsonObj().Field("job", job));
    if (!reply.has_value() || !reply->BoolOr("ok", false)) {
      report->Violation("acknowledged job " + std::to_string(job) +
                        " missing from status");
      break;
    }
    const std::string state = reply->StringOr("state", "");
    if (state != "completed" && state != "dropped") {
      report->Violation("job " + std::to_string(job) + " ended " + state);
      break;
    }
    per_job(job, *reply);
  }
  if (!generator.transport_ok()) {
    report->Violation("transport error");
  }
  return queued_at_stop;
}

// One climb of the rate ladder.
struct Climb {
  std::vector<PhaseResult> rungs;  // every rung run; the last may be the miss
  size_t passed = 0;               // rungs[0, passed) passed
  double max_ok_rps = 0.0;  // successful replies/s over the highest pass
  double max_ok_compression = 0.0;
  std::string binding = "none within the ladder";
  int64_t queued_at_load_stop = 0;
};

// A fresh daemon warms up at the trace's own pace from trace job `first_job`,
// climbs the ladder until a rung misses the latency limit, refuses or loses a
// request, or lets the backlog (queued + pending) grow by more than
// max(16, 5% of its submissions); then drains and passes the gate.
Climb ClimbLadder(const std::string& socket_path, const JobTrace& trace,
                  uint64_t seed, int64_t first_job, double scale,
                  Tracer* tracer, Report* report) {
  Climb climb;
  ServedDaemon served(socket_path, tracer);
  LoadGenerator generator(trace, seed, tracer, first_job);
  if (!served.Start() || !generator.Connect(socket_path)) {
    report->Violation("ladder daemon failed to start or accept connections");
    return climb;
  }
  served.Serve();
  tetrisched::SchedulerDaemon& daemon = served.daemon();
  PhaseResult warmup = generator.Run(1.0, 0.5 * scale);
  std::vector<int64_t> acked = warmup.acked_jobs;
  for (double compression : kLadder) {
    tetrisched::DaemonStatus before = daemon.StatusSnapshot();
    PhaseResult rung = generator.Run(compression, kRungSeconds * scale);
    tetrisched::DaemonStatus after = daemon.StatusSnapshot();
    acked.insert(acked.end(), rung.acked_jobs.begin(), rung.acked_jobs.end());
    std::vector<double> latency = rung.latency_ms;
    double p99 = TailPercentile(&latency, 99.0).second;
    const int64_t submits = static_cast<int64_t>(rung.submit_ms.size());
    const bool backlog_grew =
        Backlog(after) - Backlog(before) >
        std::max<int64_t>(16, submits / 20);
    const bool ok = rung.failed() == 0 && p99 <= kLatencyLimitMs &&
                    !backlog_grew && generator.transport_ok();
    std::printf("rung x%-4.1f %6.0f rps: p99 %.2f ms, refused %lld, "
                "timed out %lld, backlog %lld -> %lld (queued %lld), "
                "running %lld%s\n",
                compression, rung.sent_per_s(), p99,
                static_cast<long long>(rung.refused),
                static_cast<long long>(rung.timed_out),
                static_cast<long long>(Backlog(before)),
                static_cast<long long>(Backlog(after)),
                static_cast<long long>(after.queued),
                static_cast<long long>(after.running), ok ? "" : "  <- miss");
    climb.rungs.push_back(std::move(rung));
    if (!ok) {
      // A daemon thread that cannot keep up runs fewer cycles than its clock
      // asks for; one that keeps its clock while the backlog grows is held
      // up by the cluster (or by what its scheduler can place).
      const double clock_share =
          static_cast<double>(after.cycles - before.cycles) /
          (climb.rungs.back().seconds * 1000.0 / kCyclePeriodMs);
      if (climb.rungs.back().refused > 0) {
        climb.binding = "admission queue (overloaded refusals)";
      } else if (clock_share < 0.95) {
        climb.binding = "daemon thread (cycles overrun the cycle period)";
      } else if (backlog_grew) {
        climb.binding = "cluster capacity (backlog grows on time-kept cycles)";
      } else {
        climb.binding = "daemon thread (requests wait behind cycles)";
      }
      std::printf("miss: the daemon ran %.0f%% of its clock's cycles\n",
                  100.0 * clock_share);
      break;
    }
    climb.passed = climb.rungs.size();
    climb.max_ok_compression = compression;
    climb.max_ok_rps = climb.rungs.back().ok_per_s();
  }
  climb.queued_at_load_stop = DrainAndCheck(
      served, generator, acked, report, [](int64_t, const JsonValue&) {});
  return climb;
}

// Drain probe: a small daemon that admits one job per cycle gets a burst of
// submissions and then `drain` while most of them are still in its intake
// queue. The main run drains only after its queue has emptied, because a
// draining daemon stops moving queued submissions into its pending set; the
// probe shows whether that still holds. Returns (queued at drain, drained
// within the wait).
std::pair<int64_t, bool> ProbeDrainWithQueuedWork(
    const std::string& socket_path, const JobTrace& trace, uint64_t seed) {
  Tracer no_tracer(false);
  ServedDaemon probe(socket_path, &no_tracer, /*admit_per_cycle=*/1);
  LoadGenerator client(trace, seed, &no_tracer);
  if (!probe.Start() || !client.Connect(socket_path)) {
    return {-1, false};
  }
  probe.Serve();
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    client.Call("submit",
                JsonObj().FieldRaw("job", JobSpec(trace.jobs[i], 1.0)));
  }
  const int64_t queued = probe.daemon().StatusSnapshot().queued;
  client.Call("drain", JsonObj());
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(1);
  while (!probe.daemon().StatusSnapshot().drained && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return {queued, probe.daemon().StatusSnapshot().drained};
}

}  // namespace

void RunServiceWorkload(const RunOptions& options, Report* report) {
  PinThread(pthread_self(), GeneratorAndDaemonCpus().first);
  const std::string socket_path =
      (options.work_dir.empty() ? std::string(".") : options.work_dir) +
      "/svc-" + std::to_string(options.seed) + ".sock";
  const double scale = options.smoke ? 0.1 : 1.0;
  Tracer tracer(options.trace);
  Tracer no_tracer(false);
  const std::vector<double> cycle_buckets = FineCycleBucketsMs();
  tetrisched::GlobalMetrics().GetHistogram("tetrisched_cycle_ms",
                                           cycle_buckets);

  // Set-up: generating the job trace, daemon construction + Start (listener
  // bind, journal recovery) and connecting, repeated and reduced to a
  // median. The trace's compute keeps the figure from resting on a few
  // syscalls alone, whose cost differed by 1.5x from one run to the next.
  JobTrace trace;
  report->Set("setup_s", MedianSetupSeconds(5, [&] {
                trace = MakeTrace(options.seed, options.smoke ? 2000 : 20000);
                ServedDaemon served(socket_path, &no_tracer);
                LoadGenerator generator(trace, options.seed, &no_tracer);
                if (!served.Start() || !generator.Connect(socket_path)) {
                  report->Violation("daemon set-up failed");
                }
              }),
              "s");

  // The reference daemon: request latency, cycle times and schedule quality
  // at the trace's own pace.
  ServedDaemon served(socket_path, &tracer);
  LoadGenerator generator(trace, options.seed, &tracer);
  if (!served.Start() || !generator.Connect(socket_path)) {
    report->Violation("daemon failed to start or accept connections");
    return;
  }
  served.Serve();
  tetrisched::SchedulerDaemon& daemon = served.daemon();

  // Warm-up, not measured: fills the cluster to its steady load.
  PhaseResult warmup = generator.Run(1.0, 1.0 * scale);
  tetrisched::GlobalMetrics().Reset();
  const TimedStorage::Counts persist_before = served.storage().counts();
  const int64_t cycles_before = daemon.StatusSnapshot().cycles;
  const Clock::time_point reference_start = Clock::now();
  // The reference phase. Request latency and the daemon's cycle-time
  // percentiles are pooled over the whole phase (cycle times from the
  // difference of the daemon's `metrics` histograms at its ends).
  std::optional<tetrisched::HistogramSnapshot> cycles_at =
      ReadCycleHistogram(generator.Call("metrics", JsonObj()));
  if (!AtResolution(cycles_at, cycle_buckets)) {
    report->Violation(
        "the daemon's cycle histogram is not at the benchmark's resolution");
    return;
  }
  PhaseResult reference =
      generator.Run(1.0, std::max(1.0, kReferenceShare * options.seconds));
  std::optional<tetrisched::HistogramSnapshot> cycles_end =
      ReadCycleHistogram(generator.Call("metrics", JsonObj()));
  if (!AtResolution(cycles_end, cycle_buckets)) {
    report->Violation("no cycle histogram in the daemon's metrics reply");
    return;
  }
  std::vector<double> reference_latency = reference.latency_ms;
  const double p99 = TailPercentile(&reference_latency, 99.0).second;
  const double req_p50 = PercentileSorted(reference_latency, 50.0);
  const double reference_s = MsBetween(reference_start, Clock::now()) / 1000.0;
  const int64_t cycles = daemon.StatusSnapshot().cycles - cycles_before;
  const TimedStorage::Counts persist_after = served.storage().counts();
  // Memory after the reference phase; the ladder's overload rungs would
  // make the process peak depend on how far the ladder climbed.
  const double reference_rss_mb = PeakRssMb();
  std::optional<JsonValue> metrics_reply =
      generator.Call("metrics", JsonObj().Field("format", "json"));
  JsonValue metrics;
  if (metrics_reply.has_value() && metrics_reply->Find("metrics") != nullptr) {
    metrics = *metrics_reply->Find("metrics");
  } else {
    report->Violation("no metrics reply");
  }
  // Transport errors below saturation are correctness failures.
  if (reference.errors + reference.timed_out > 0) {
    report->Violation("transport errors or timeouts at the reference rate");
  }

  // Schedule quality of the jobs submitted in the reference phase, from
  // their final `status` after drain.
  std::vector<int64_t> acked = warmup.acked_jobs;
  acked.insert(acked.end(), reference.acked_jobs.begin(),
               reference.acked_jobs.end());
  const std::set<int64_t> in_reference(reference.acked_jobs.begin(),
                                       reference.acked_jobs.end());
  int64_t slo = 0, slo_met = 0, accepted = 0, accepted_met = 0, be = 0;
  double be_latency = 0.0;
  DrainAndCheck(served, generator, acked, report,
                [&](int64_t job, const JsonValue& status) {
                  if (!in_reference.count(job)) {
                    return;
                  }
                  const bool completed =
                      status.StringOr("state", "") == "completed";
                  const std::string slo_class =
                      status.StringOr("slo_class", "");
                  if (slo_class == "best-effort") {
                    if (completed) {
                      ++be;
                      be_latency +=
                          static_cast<double>(status.IntOr("end", 0) -
                                              status.IntOr("accepted_at", 0));
                    }
                    return;
                  }
                  const bool met =
                      completed && status.Find("deadline") != nullptr &&
                      status.IntOr("end", 0) <= status.IntOr("deadline", 0);
                  ++slo;
                  slo_met += met ? 1 : 0;
                  if (slo_class == "slo-accepted") {
                    ++accepted;
                    accepted_met += met ? 1 : 0;
                  }
                });
  served.Stop();

  // The rate ladder, climbed kClimbs times by fresh daemons, each from its
  // own stretch of the trace.
  std::vector<Climb> climbs;
  for (int c = 0; c < kClimbs; ++c) {
    const int64_t first_job =
        static_cast<int64_t>(trace.jobs.size()) * (c + 1) / (kClimbs + 1);
    std::printf("climb %d\n", c + 1);
    climbs.push_back(ClimbLadder(socket_path, trace, options.seed + c + 1,
                                 first_job, scale, &tracer, report));
  }
  std::vector<double> climb_max_ok, climb_compression;
  tetrisched::JsonArr climb_bindings;
  for (const Climb& climb : climbs) {
    // A climb whose first rung missed falls back to the reference rate.
    climb_max_ok.push_back(climb.passed > 0 ? climb.max_ok_rps
                                            : reference.ok_per_s());
    climb_compression.push_back(climb.max_ok_compression);
    climb_bindings.Add(climb.binding);
  }
  const double max_ok_rps = Median(climb_max_ok);
  std::printf("max_ok_rps %.0f (median of climbs); binding resource at the "
              "first climb's miss: %s\n",
              max_ok_rps, climbs[0].binding.c_str());

  const auto [probe_queued, probe_drained] = ProbeDrainWithQueuedWork(
      socket_path + ".probe", trace, options.seed);
  std::printf("drain probe: %s with %lld submissions queued at drain\n",
              probe_drained ? "drained" : "NOT drained within 1 s",
              static_cast<long long>(probe_queued));

  report->attempted = reference.sent;
  report->failed = reference.failed();
  int64_t refused = reference.refused;
  for (const Climb& climb : climbs) {
    for (size_t r = 0; r < climb.rungs.size(); ++r) {
      refused += climb.rungs[r].refused;
      if (r < climb.passed) {
        report->attempted += climb.rungs[r].sent;
        report->failed += climb.rungs[r].failed();
      }
    }
  }

  const double slo_pct = slo > 0 ? 100.0 * slo_met / slo : 0.0;
  const double cycles_per_s = static_cast<double>(cycles) / reference_s;
  report->Set("cycle_ms_p50", WindowPercentile(*cycles_at, *cycles_end, 50.0),
              "ms");
  report->Set("cycle_ms_p95", WindowPercentile(*cycles_at, *cycles_end, 95.0),
              "ms");
  report->Set("cycles_per_s", cycles_per_s, "1/s");
  report->Set("req_ms_p50", req_p50, "ms");
  report->Set("max_ok_rps", max_ok_rps, "1/s");
  report->Set("slo_pct", slo_pct, "%");
  // Attainment of the SLO jobs Rayon accepted. While no job holds a
  // reservation (the capacity-0 restore defect: accepted_slo_jobs = 0) the
  // figure falls back to slo_pct; `accepted_slo_source` says which it is.
  report->Set("accepted_slo_pct",
              accepted > 0 ? 100.0 * accepted_met / accepted : slo_pct, "%");
  report->Info("accepted_slo_jobs", static_cast<double>(accepted));
  report->Info("accepted_slo_source",
               accepted > 0 ? "slo-accepted jobs" : "slo_pct (no accepted jobs)");
  report->Set("be_latency_s", be > 0 ? be_latency / be : 0.0, "s");
  report->Set("peak_rss_mb", reference_rss_mb, "MB");
  report->Info("cluster_load", kClusterLoad);
  report->Info("reference_rps", reference.sent_per_s());
  report->Info("latency_limit_ms", kLatencyLimitMs);
  report->Info("req_samples", static_cast<double>(reference.latency_ms.size()));
  report->Info("cycle_samples", static_cast<double>(cycles));
  report->Info("req_ms_p99", p99);
  std::vector<double> late_ms = reference.late_ms;
  std::sort(late_ms.begin(), late_ms.end());
  report->Info("late_ms_p50", PercentileSorted(late_ms, 50.0));
  report->Info("service.cycles", static_cast<double>(cycles));
  tetrisched::JsonArr ok_rps, compressions;
  for (size_t c = 0; c < climbs.size(); ++c) {
    ok_rps.Add(climb_max_ok[c]);
    compressions.Add(climb_compression[c]);
  }
  report->InfoRaw("climb_max_ok_rps", ok_rps.str());
  report->InfoRaw("climb_max_ok_compression", compressions.str());
  report->InfoRaw("climb_binding_resource", climb_bindings.str());
  report->Info("binding_resource", climbs[0].binding);
  report->Info("queued_at_load_stop",
               static_cast<double>(climbs[0].queued_at_load_stop));
  report->Info("drain_probe_queued", static_cast<double>(probe_queued));
  report->Info("drain_probe", probe_drained ? "drained" : "not drained");

  if (!options.trace) {
    return;
  }
  auto mean_of = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) {
      sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  std::vector<double> late = reference.late_ms;
  const double requests = std::max<double>(1.0, reference.sent);
  const double appends = static_cast<double>(persist_after.appends -
                                             persist_before.appends);
  report->Set("rayon.accepted_pct", slo > 0 ? 100.0 * accepted / slo : 0.0,
              "%");
  report->Set("service.req_ms_p99", p99, "ms");
  report->Set("service.submit_ms", mean_of(reference.submit_ms), "ms");
  report->Set("service.status_ms", mean_of(reference.status_ms), "ms");
  report->Set("service.refused", static_cast<double>(refused), "count");
  report->Set("service.cycle_ms_p50",
              HistogramField(metrics, "tetrisched_cycle_ms", "p50"), "ms");
  report->Set("service.cycle_ms_p99",
              HistogramField(metrics, "tetrisched_cycle_ms", "p99"), "ms");
  report->Set("service.fallback_cycles",
              CounterValue(metrics, "tetrisched_fallback_cycles_total"),
              "count");
  report->Set("service.cycles", static_cast<double>(cycles), "count");
  report->Set("service.cycle_busy_pct",
              100.0 * HistogramField(metrics, "tetrisched_cycle_ms", "sum") /
                  (1000.0 * reference_s),
              "%");
  report->Set("net.bytes_out_per_req", reference.bytes_out / requests, "B");
  report->Set("net.bytes_in_per_req", reference.bytes_in / requests, "B");
  report->Set("persist.appends", appends, "count");
  report->Set("persist.bytes",
              static_cast<double>(persist_after.bytes - persist_before.bytes),
              "B");
  report->Set("persist.append_us",
              appends > 0 ? (persist_after.ns - persist_before.ns) / 1e3 /
                                appends
                          : 0.0,
              "us");
  report->Set("loadgen.late_ms_p99", TailPercentile(&late, 99.0).second, "ms");
  // The daemon's scheduler layers, read from its `metrics` reply.
  const double daemon_cycles =
      std::max(1.0, HistogramField(metrics, "tetrisched_cycle_ms", "count"));
  report->Set("core.cycle_ms",
              HistogramField(metrics, "tetrisched_cycle_ms", "mean"), "ms");
  report->Set("strl_gen.ms",
              HistogramField(metrics, "tetrisched_phase_strl_gen_ms", "sum") /
                  daemon_cycles,
              "ms");
  report->Set("compiler.ms",
              HistogramField(metrics, "tetrisched_phase_compile_ms", "sum") /
                  daemon_cycles,
              "ms");
  report->Set("solver.ms",
              HistogramField(metrics, "tetrisched_phase_solve_ms", "sum") /
                  daemon_cycles,
              "ms");
  report->Set("core.commit_ms",
              HistogramField(metrics, "tetrisched_phase_commit_ms", "sum") /
                  daemon_cycles,
              "ms");
  const double nodes = CounterValue(metrics, "tetrisched_solver_nodes_total");
  report->Set("solver.nodes", nodes, "count");
  const double iterations =
      CounterValue(metrics, "tetrisched_solver_lp_iterations_total");
  report->Set("solver.lp_iterations", iterations, "count");
  report->Set("solver.iters_per_node", nodes > 0 ? iterations / nodes : 0.0,
              "count");
  report->Set("solver.us_per_iter",
              iterations > 0
                  ? 1e3 *
                        HistogramField(metrics, "tetrisched_phase_solve_ms",
                                       "sum") /
                        iterations
                  : 0.0,
              "us");
  report->Set("core.fallback_cycles",
              CounterValue(metrics, "tetrisched_fallback_cycles_total"),
              "count");
  report->Set("core.skipped_cycles",
              CounterValue(metrics, "tetrisched_skipped_cycles_total"),
              "count");
  report->Set("core.dropped_jobs",
              CounterValue(metrics, "tetrisched_dropped_jobs_total"), "count");
  report->Set("certify.rejects",
              CounterValue(metrics, "tetrisched_certifier_rejects_total"),
              "count");
  WriteSpans(tracer, options);
}

}  // namespace perfbench
