#include "src/common/span.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/json.h"

namespace tetrisched {
namespace span_internal {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point ProcessEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

struct SpanCrashHook {
  std::atomic<bool> armed{false};
  const char* name = nullptr;
  void (*fn)() = nullptr;
  std::thread::id thread;
};

SpanCrashHook& CrashHook() {
  static SpanCrashHook hook;
  return hook;
}

}  // namespace

void ArmSpanCrashHook(const char* name, void (*fn)()) {
  SpanCrashHook& hook = CrashHook();
  hook.name = name;
  hook.fn = fn;
  hook.thread = std::this_thread::get_id();
  hook.armed.store(true, std::memory_order_release);
}

void DisarmSpanCrashHook() {
  CrashHook().armed.store(false, std::memory_order_release);
}

bool SpanCrashHookArmed() {
  return CrashHook().armed.load(std::memory_order_relaxed);
}

void MaybeFireSpanCrashHook(const char* name) {
  SpanCrashHook& hook = CrashHook();
  if (!hook.armed.load(std::memory_order_acquire) ||
      std::this_thread::get_id() != hook.thread ||
      std::strcmp(name, hook.name) != 0) {
    return;
  }
  // Disarm before firing: the callback throws, and the unwinding path
  // constructs spans of its own.
  hook.armed.store(false, std::memory_order_release);
  hook.fn();
}

uint64_t MicrosSinceEpoch(Clock::time_point t) {
  // The epoch is taken on first use, which can postdate a scope's entry
  // reading; such a scope starts at 0.
  const Clock::time_point epoch = ProcessEpoch();
  if (t <= epoch) {
    return 0;
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - epoch)
          .count());
}

uint64_t NowMicros() { return MicrosSinceEpoch(Clock::now()); }

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next_id{0};
  thread_local uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int32_t& CurrentDepth() {
  thread_local int32_t depth = 0;
  return depth;
}

}  // namespace span_internal

SpanCollector& SpanCollector::Global() {
  static SpanCollector* collector = new SpanCollector();
  return *collector;
}

void SpanCollector::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string SpanCollector::ToChromeTraceJson() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) {
      out += ",";
    }
    out += "\n  {\"name\": \"";
    out += JsonEscape(span.name);
    out += "\", \"cat\": \"tetrisched\", \"ph\": \"X\", \"ts\": " +
           std::to_string(span.start_us) +
           ", \"dur\": " + std::to_string(span.duration_us) +
           ", \"pid\": 1, \"tid\": " + std::to_string(span.thread) +
           ", \"args\": {\"depth\": " + std::to_string(span.depth) + "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace tetrisched
