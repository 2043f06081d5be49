// RAII scoped timers forming a thread-aware span tree, exportable as Chrome
// trace-event JSON (load via chrome://tracing or https://ui.perfetto.dev).
//
// Usage on a code path:
//
//   Decision TetriScheduler::OnCycle(...) {
//     ScopedSpan cycle("scheduler.cycle", &seconds);  // span + phase timer
//     { TETRI_SPAN("scheduler.validate"); ... }      // nested child span
//   }
//
// Collection is off by default. A disabled ScopedSpan without a seconds
// sink costs one relaxed atomic load and nothing else — no clock read, no
// allocation — so instrumentation can stay compiled into hot paths (the
// overhead is verified by bench/micro_solver's span benchmarks). When
// ObservabilityEnabled() is set (metrics.h), each span records its name,
// wall-clock interval, thread, and nesting depth into the global
// SpanCollector; nesting is reconstructed per thread from start/duration
// containment, which is exactly how Chrome's trace viewer stacks "X"
// (complete) events.
//
// Span names must be string literals (the collector stores the pointer).

#ifndef TETRISCHED_COMMON_SPAN_H_
#define TETRISCHED_COMMON_SPAN_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/metrics.h"

namespace tetrisched {

struct SpanRecord {
  const char* name = "";  // string literal supplied to TETRI_SPAN
  uint64_t start_us = 0;  // microseconds since the process span epoch
  uint64_t duration_us = 0;
  uint32_t thread = 0;  // small dense id, stable per OS thread
  int32_t depth = 0;    // nesting depth within the recording thread
};

namespace span_internal {

// Microseconds since a process-wide steady_clock epoch.
uint64_t MicrosSinceEpoch(std::chrono::steady_clock::time_point t);
uint64_t NowMicros();
// Dense per-thread id (0, 1, 2, ... in first-use order).
uint32_t CurrentThreadId();
// Mutable nesting depth of the calling thread.
int32_t& CurrentDepth();

// One-shot crash hook for fault injection (DESIGN.md §11): while armed, the
// first ScopedSpan constructed *on the arming thread* whose name matches
// `name` disarms the hook and invokes `fn` (which typically throws a crash
// signal). The signal must unwind the cycle that armed the hook, so a
// scheduler running on another thread of the same process (a daemon's loop,
// a concurrent test) never fires it. Disarmed cost: one relaxed atomic load
// in the ScopedSpan ctor.
void ArmSpanCrashHook(const char* name, void (*fn)());
void DisarmSpanCrashHook();
bool SpanCrashHookArmed();
void MaybeFireSpanCrashHook(const char* name);

}  // namespace span_internal

// Thread-safe buffer of finished spans. Recording appends under a mutex;
// spans are per-cycle-phase granularity, so contention is negligible.
class SpanCollector {
 public:
  static SpanCollector& Global();

  void Record(const SpanRecord& span);

  std::vector<SpanRecord> Snapshot() const;
  size_t size() const;
  void Clear();

  // Chrome trace-event JSON: one "X" (complete) event per span, with ts/dur
  // in microseconds and the recording thread as tid.
  std::string ToChromeTraceJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// One RAII timer per scope. With a `seconds` sink it is also the phase
// timer: the scope reads the clock once on entry and once on exit, adds the
// interval to *seconds, and (when observability is on) records the span from
// the same two readings, so a phase's CycleStats field and its span agree to
// within the span's microsecond rounding.
class ScopedSpan {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ScopedSpan(const char* name, double* seconds = nullptr)
      : seconds_(seconds) {
    if (span_internal::SpanCrashHookArmed()) {
      span_internal::MaybeFireSpanCrashHook(name);  // may throw (by design)
    }
    if (ObservabilityEnabled()) {
      name_ = name;
      depth_ = span_internal::CurrentDepth()++;
    } else if (seconds_ == nullptr) {
      return;  // zero-overhead disabled path: one relaxed load, no clock
    }
    start_ = Clock::now();
  }

  ~ScopedSpan() {
    if (name_ == nullptr && seconds_ == nullptr) {
      return;
    }
    const Clock::time_point end = Clock::now();
    if (seconds_ != nullptr) {
      *seconds_ += std::chrono::duration<double>(end - start_).count();
    }
    if (name_ != nullptr) {
      --span_internal::CurrentDepth();
      SpanCollector::Global().Record(
          {name_, span_internal::MicrosSinceEpoch(start_),
           static_cast<uint64_t>(
               std::chrono::duration_cast<std::chrono::microseconds>(end -
                                                                     start_)
                   .count()),
           span_internal::CurrentThreadId(), depth_});
    }
  }

  // Entry clock reading; valid only when a sink was given or observability
  // is on.
  Clock::time_point start() const { return start_; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  double* seconds_ = nullptr;
  Clock::time_point start_{};
  int32_t depth_ = 0;
};

#define TETRI_SPAN_CONCAT_INNER(a, b) a##b
#define TETRI_SPAN_CONCAT(a, b) TETRI_SPAN_CONCAT_INNER(a, b)
#define TETRI_SPAN(name) \
  ::tetrisched::ScopedSpan TETRI_SPAN_CONCAT(tetri_span_, __LINE__)(name)

}  // namespace tetrisched

#endif  // TETRISCHED_COMMON_SPAN_H_
