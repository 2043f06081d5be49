// End-to-end tests for the tetrischedd service layer (DESIGN.md §16):
// daemon + clients over socketpairs, admission backpressure, drain
// semantics, and SIGTERM -> final checkpoint -> restart recovery.

#include <csignal>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/client/client.h"
#include "src/net/socket.h"
#include "src/persist/journal.h"
#include "src/service/daemon.h"
#include "src/service/signals.h"

namespace tetrisched {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Runs a daemon on a background thread and hands out socketpair-backed
// clients. Everything is in-process and loopback-free, so the tests are
// deterministic under sanitizers and need no filesystem or ports.
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonOptions options) {
    daemon_ = std::make_unique<SchedulerDaemon>(std::move(options));
  }

  ~DaemonHarness() { Stop(); }

  bool Start() {
    if (!daemon_->Start()) {
      return false;
    }
    thread_ = std::thread([this] { daemon_->Run(); });
    return true;
  }

  ServiceClient Connect(const std::string& name) {
    auto [daemon_end, client_end] = MakeSocketPair();
    daemon_->AddConnectionFd(daemon_end.Release());
    ServiceClient client = ServiceClient::Adopt(client_end.Release());
    client.set_client_name(name);
    client.set_timeout_ms(5000);
    return client;
  }

  void Stop() {
    if (thread_.joinable()) {
      daemon_->RequestStop();
      thread_.join();
    }
  }

  // Joins the serving thread without requesting a stop (the daemon is
  // expected to exit on its own, e.g. after a signal).
  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  SchedulerDaemon& daemon() { return *daemon_; }

  // Polls the status snapshot until `done` holds or the deadline passes.
  bool WaitFor(const std::function<bool(const DaemonStatus&)>& done,
               int timeout_ms = 10000) {
    steady_clock::time_point deadline =
        steady_clock::now() + milliseconds(timeout_ms);
    while (steady_clock::now() < deadline) {
      if (done(daemon_->StatusSnapshot())) {
        return true;
      }
      std::this_thread::sleep_for(milliseconds(2));
    }
    return done(daemon_->StatusSnapshot());
  }

 private:
  std::unique_ptr<SchedulerDaemon> daemon_;
  std::thread thread_;
};

DaemonOptions FastOptions() {
  DaemonOptions options;
  options.racks = 2;
  options.nodes_per_rack = 4;
  options.gpu_racks = 1;
  options.cycle_period_ms = 5;  // virtual time runs 800x real time
  options.sim_seconds_per_cycle = 4;
  options.admission.cycle_period_ms = 5;
  return options;
}

JsonObj SmallJob(int64_t runtime = 4) {
  JsonObj spec;
  spec.Field("type", "unconstrained");
  spec.Field("k", static_cast<int64_t>(1));
  spec.Field("runtime", runtime);
  return spec;
}

// The acceptance scenario: two clients over socketpairs submit 20 jobs
// while a third floods past the admission bound. The flooder observes
// `overloaded` rejections with retry hints; the well-behaved clients'
// jobs all complete, and the plan validator never fires.
TEST(ServiceEndToEndTest, BackpressureIsolatesFloodingClient) {
  DaemonOptions options = FastOptions();
  options.admission.max_queued = 8;
  options.admission.admit_per_cycle = 4;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());

  ServiceClient alice = harness.Connect("alice");
  ServiceClient bob = harness.Connect("bob");
  ServiceClient flood = harness.Connect("flood");
  ASSERT_TRUE(alice.connected());
  ASSERT_TRUE(bob.connected());
  ASSERT_TRUE(flood.connected());

  // The flooder fires 60 submissions back-to-back — far faster than the
  // queue drains at admit_per_cycle per 5 ms cycle.
  int flood_accepted = 0;
  int flood_overloaded = 0;
  for (int i = 0; i < 60; ++i) {
    ServiceReply reply = flood.SubmitSpec(SmallJob());
    ASSERT_TRUE(reply.transport_ok);
    if (reply.ok) {
      ++flood_accepted;
    } else if (reply.Overloaded()) {
      ++flood_overloaded;
      EXPECT_GT(reply.retry_after_ms, 0);
    } else {
      FAIL() << "unexpected error: " << reply.error;
    }
  }
  EXPECT_GT(flood_overloaded, 0) << "flood never hit the admission bound";

  // Meanwhile the polite clients submit 10 jobs each, honoring the retry
  // hints. All 20 must eventually be accepted despite the flood.
  std::vector<int64_t> polite_jobs;
  for (int i = 0; i < 20; ++i) {
    ServiceClient& client = (i % 2 == 0) ? alice : bob;
    for (;;) {
      ServiceReply reply = client.SubmitSpec(SmallJob());
      ASSERT_TRUE(reply.transport_ok);
      if (reply.ok) {
        polite_jobs.push_back(reply.body.IntOr("job", -1));
        break;
      }
      ASSERT_TRUE(reply.Overloaded()) << reply.error;
      std::this_thread::sleep_for(
          milliseconds(std::max<int64_t>(1, reply.retry_after_ms)));
    }
  }
  ASSERT_EQ(polite_jobs.size(), 20u);
  for (int64_t job : polite_jobs) {
    EXPECT_GT(job, 0);
  }

  // Everything accepted (polite + flood survivors) runs to completion.
  int64_t accepted = 20 + flood_accepted;
  ASSERT_TRUE(harness.WaitFor([&](const DaemonStatus& status) {
    return status.completed + status.dropped >= accepted;
  })) << "jobs did not finish";

  DaemonStatus status = harness.daemon().StatusSnapshot();
  EXPECT_EQ(status.validator_violations, 0);
  EXPECT_GE(status.rejected_total, flood_overloaded);
  EXPECT_EQ(status.completed + status.dropped, accepted);

  // Per-job status for a polite job reports a terminal state.
  ServiceReply reply = alice.StatusOf(polite_jobs.front());
  ASSERT_TRUE(reply.transport_ok);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.body.StringOr("state", ""), "completed");

  harness.Stop();
}

// `drain` stops intake (new submissions are refused) but in-flight work
// runs to completion, after which the status reports drained.
TEST(ServiceEndToEndTest, DrainFinishesInflightAndRefusesNewWork) {
  DaemonOptions options = FastOptions();
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("drain-test");
  ASSERT_TRUE(client.connected());

  for (int i = 0; i < 6; ++i) {
    ServiceReply reply = client.SubmitSpec(SmallJob(/*runtime=*/20));
    ASSERT_TRUE(reply.transport_ok);
    ASSERT_TRUE(reply.ok) << reply.error;
  }
  // Let at least one job start before draining so there is in-flight work.
  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.running > 0; }));

  ServiceReply drain = client.Drain();
  ASSERT_TRUE(drain.transport_ok);
  ASSERT_TRUE(drain.ok);

  ServiceReply refused = client.SubmitSpec(SmallJob());
  ASSERT_TRUE(refused.transport_ok);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, "draining");

  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.drained; }));
  DaemonStatus status = harness.daemon().StatusSnapshot();
  EXPECT_EQ(status.completed + status.dropped, 6);
  EXPECT_EQ(status.queued, 0);
  EXPECT_EQ(status.pending, 0);
  EXPECT_EQ(status.running, 0);
  EXPECT_EQ(status.validator_violations, 0);

  harness.Stop();
}

// `drain` sent while acknowledged submissions are still queued: intake is
// closed to new work, but the queued jobs are still admitted (one per cycle
// here) and run, so the daemon reaches drained with every job accounted for.
TEST(ServiceEndToEndTest, DrainAdmitsSubmissionsAlreadyQueued) {
  DaemonOptions options = FastOptions();
  options.admission.admit_per_cycle = 1;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("drain-queued");
  ASSERT_TRUE(client.connected());

  for (int i = 0; i < 8; ++i) {
    ServiceReply reply = client.SubmitSpec(SmallJob());
    ASSERT_TRUE(reply.transport_ok);
    ASSERT_TRUE(reply.ok) << reply.error;
  }
  ServiceReply drain = client.Drain();
  ASSERT_TRUE(drain.transport_ok);
  ASSERT_TRUE(drain.ok);

  ServiceReply refused = client.SubmitSpec(SmallJob());
  ASSERT_TRUE(refused.transport_ok);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, "draining");

  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.drained; }))
      << "queued submissions never left the intake queue";
  DaemonStatus status = harness.daemon().StatusSnapshot();
  EXPECT_EQ(status.completed + status.dropped, 8);
  EXPECT_EQ(status.queued, 0);
  EXPECT_EQ(status.validator_violations, 0);

  harness.Stop();
}

// SIGTERM mid-run: the self-pipe handler wakes the loop, the daemon writes
// a final checkpoint, and a restarted daemon attached to the same journal
// storage resumes every accepted-but-unfinished job.
TEST(ServiceEndToEndTest, SigtermCheckpointsAndRestartRecovers) {
  MemoryJournalStorage storage;

  int64_t accepted = 0;
  int64_t finished_before_kill = 0;
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    options.admission.admit_per_cycle = 2;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    ASSERT_TRUE(InstallTerminationSignalHandlers(harness.daemon().wakeup_fd()));

    ServiceClient client = harness.Connect("sigterm-test");
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 8; ++i) {
      // Long jobs: nothing finishes before the kill.
      ServiceReply reply = client.SubmitSpec(SmallJob(/*runtime=*/200));
      ASSERT_TRUE(reply.transport_ok);
      ASSERT_TRUE(reply.ok) << reply.error;
      ++accepted;
    }
    // Kill mid-run: some jobs running, the rest still queued/pending.
    ASSERT_TRUE(harness.WaitFor(
        [](const DaemonStatus& status) { return status.running > 0; }));
    finished_before_kill = harness.daemon().StatusSnapshot().completed;

    ASSERT_EQ(raise(SIGTERM), 0);
    harness.Join();  // daemon exits on its own via the self-pipe
    RestoreDefaultSignalHandlers();
    EXPECT_EQ(harness.daemon().StatusSnapshot().validator_violations, 0);
  }

  // The final checkpoint must have produced a snapshot.
  EXPECT_FALSE(storage.ReadSnapshot().empty());

  // Restart against the same storage: every accepted-but-unfinished job is
  // resumed (pending again or adopted as running) and runs to completion.
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    int64_t recovered = harness.daemon().recovered_pending() +
                        harness.daemon().recovered_running();
    EXPECT_EQ(recovered, accepted - finished_before_kill);
    EXPECT_GT(harness.daemon().recovered_running(), 0);

    ASSERT_TRUE(harness.WaitFor(
        [&](const DaemonStatus& status) {
          return status.completed + status.dropped >= recovered;
        },
        /*timeout_ms=*/20000))
        << "recovered jobs did not finish after restart";
    DaemonStatus status = harness.daemon().StatusSnapshot();
    EXPECT_EQ(status.validator_violations, 0);
    harness.Stop();
  }
}

// The journal survives a *second* restart cycle: jobs accepted by the
// restarted daemon are themselves durable.
TEST(ServiceEndToEndTest, JournalAcceptsNewWorkAfterRestart) {
  MemoryJournalStorage storage;
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    ServiceClient client = harness.Connect("gen1");
    ServiceReply reply = client.SubmitSpec(SmallJob(/*runtime=*/500));
    ASSERT_TRUE(reply.transport_ok);
    ASSERT_TRUE(reply.ok);
    ASSERT_TRUE(harness.WaitFor(
        [](const DaemonStatus& status) { return status.running > 0; }));
    harness.Stop();  // RequestStop also runs the final checkpoint
  }
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    EXPECT_EQ(harness.daemon().recovered_pending() +
                  harness.daemon().recovered_running(),
              1);
    harness.Stop();
  }
}

// A daemon started on empty journal storage recovers an empty image; its
// Rayon admission must keep the cluster's capacity and accept reservations.
TEST(ServiceEndToEndTest, FreshJournalDaemonAcceptsReservations) {
  MemoryJournalStorage storage;
  DaemonOptions options = FastOptions();
  options.storage = &storage;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("reserve");
  JsonObj spec = SmallJob(/*runtime=*/8);
  spec.Field("reservation", true);
  spec.Field("deadline_in", static_cast<int64_t>(400));
  ServiceReply submit = client.SubmitSpec(spec);
  ASSERT_TRUE(submit.ok) << submit.error;
  int64_t job = submit.body.IntOr("job", -1);
  ASSERT_GT(job, 0);
  // Admission (and with it the Rayon decision) happens on a cycle.
  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.completed >= 1; }));
  ServiceReply status = client.StatusOf(job);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(status.body.StringOr("slo_class", ""), "slo-accepted");
  harness.Stop();
}

// STRL text submissions round-trip through the parser and schedule.
TEST(ServiceEndToEndTest, StrlSubmissionSchedules) {
  DaemonHarness harness(FastOptions());
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("strl");
  ServiceReply reply = client.SubmitStrl(
      "nCk({p0,p1}, k=2, s=0, dur=8, v=4)");
  ASSERT_TRUE(reply.transport_ok);
  ASSERT_TRUE(reply.ok) << reply.error << ": " << reply.message;
  ASSERT_TRUE(harness.WaitFor([](const DaemonStatus& status) {
    return status.completed >= 1;
  })) << "STRL job never completed";
  harness.Stop();
}

// Cancel: a queued job is cancellable; a finished job reports conflict.
TEST(ServiceEndToEndTest, CancelQueuedAndFinishedJobs) {
  DaemonOptions options = FastOptions();
  options.cycle_period_ms = 50;  // slow cycles: jobs stay queued briefly
  options.admission.cycle_period_ms = 50;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("cancel-test");

  ServiceReply submit = client.SubmitSpec(SmallJob());
  ASSERT_TRUE(submit.ok);
  int64_t job = submit.body.IntOr("job", -1);
  ASSERT_GT(job, 0);
  ServiceReply cancel = client.Cancel(job);
  ASSERT_TRUE(cancel.transport_ok);
  if (cancel.ok) {  // lost the race with admission only on a very slow box
    ASSERT_TRUE(harness.WaitFor([&](const DaemonStatus& status) {
      return status.cancelled >= 1;
    }));
    ServiceReply again = client.Cancel(job);
    ASSERT_TRUE(again.transport_ok);
    EXPECT_FALSE(again.ok);  // already terminal
  }
  harness.Stop();
}

// The daemon-wide status and metrics ops answer over the wire with the
// service counters and the process/build-info gauges.
TEST(ServiceEndToEndTest, StatusAndMetricsOverTheWire) {
  DaemonHarness harness(FastOptions());
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("obs");

  ServiceReply submit = client.SubmitSpec(SmallJob());
  ASSERT_TRUE(submit.ok);
  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.completed >= 1; }));

  ServiceReply status = client.Status();
  ASSERT_TRUE(status.ok);
  EXPECT_GE(status.body.IntOr("completed", -1), 1);
  EXPECT_GE(status.body.IntOr("cycles", -1), 1);
  EXPECT_GE(status.body.IntOr("effective_plan_ahead", -1), 0);

  ServiceReply prom = client.Metrics("prom");
  ASSERT_TRUE(prom.ok);
  std::string text = prom.body.StringOr("metrics", "");
  EXPECT_NE(text.find("tetrisched_service_admitted_total"), std::string::npos);
  EXPECT_NE(text.find("tetrisched_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("tetrisched_build_info{"), std::string::npos);

  ServiceReply explain = client.Explain(-1);
  ASSERT_TRUE(explain.ok);
  EXPECT_FALSE(explain.body.StringOr("report", "").empty());

  harness.Stop();
}

}  // namespace
}  // namespace tetrisched
