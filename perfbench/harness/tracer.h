// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only around calls the benchmark itself makes into the
// library's public functions (the library is not instrumented for this).
// Each span has a name, a start and end on the steady clock, the span that
// was open on the same thread when it began (its parent), and a group id
// shared by the spans of one scheduling cycle or one service request.
// Spans stay in memory until the run ends, when WriteJson dumps them.
//
// A disabled tracer records nothing; Scope then costs one branch, so the
// untraced runs that produce the end-to-end metrics carry no tracing work.
#ifndef PERFBENCH_HARNESS_TRACER_H_
#define PERFBENCH_HARNESS_TRACER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Span {
  const char* name = "";  // a string literal
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;     // index of the enclosing span, -1 for a root
  int64_t group = -1;  // cycle index or request id
  std::vector<std::pair<const char*, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread; it closes when the scope ends.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Index of the span, -1 when the tracer is disabled.
    int index() const { return index_; }

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  // Records a span timed by the caller (e.g. a request whose latency starts
  // at its scheduled send time). Its parent is the caller's open span.
  int Record(const char* name, Clock::time_point start, Clock::time_point end,
             int64_t group);
  // Attaches a numeric attribute to a recorded span (no-op for index -1).
  // `key` must be a string literal.
  void Attr(int index, const char* key, double value);

  // Per span name: total duration and total self time (duration minus the
  // time covered by its child spans), in ms.
  struct NameTotals {
    double self_ms = 0.0;
    double total_ms = 0.0;
  };
  std::map<std::string, NameTotals> Totals() const;

  // Writes the first `max_spans` spans as JSON (times in microseconds since
  // the first span), with the total count.
  bool WriteJson(const std::string& path, size_t max_spans) const;

 private:
  int Begin(const char* name, int64_t group);
  void End(int index);

  const bool enabled_;
  mutable std::mutex mu_;  // guards spans_
  // A deque, so that growing it never moves the spans recorded so far while
  // another thread waits on the mutex.
  std::deque<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACER_H_
