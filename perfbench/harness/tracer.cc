#include "harness/tracer.h"

#include <algorithm>
#include <cstdio>

#include "src/common/json.h"

namespace perfbench {
namespace {

// Spans open on this thread, innermost last (parents of new spans).
thread_local std::vector<int> open_spans;

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t group)
    : tracer_(tracer) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    index_ = tracer_->Begin(name, group);
  }
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) {
    tracer_->End(index_);
  }
}

int Tracer::Begin(const char* name, int64_t group) {
  Span span;
  span.name = name;
  span.group = group;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  int index = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int index) {
  Clock::time_point now = Clock::now();
  if (!open_spans.empty() && open_spans.back() == index) {
    open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = now;
}

int Tracer::Record(const char* name, Clock::time_point start,
                   Clock::time_point end, int64_t group) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.group = group;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Attr(int index, const char* key, double value) {
  if (index < 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].attrs.emplace_back(key, value);
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[span.parent] += MsBetween(span.start, span.end);
    }
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double ms = MsBetween(span.start, span.end);
    NameTotals& entry = totals[span.name];
    entry.total_ms += ms;
    entry.self_ms += ms - child_ms[i];
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path, size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  Clock::time_point origin = spans_.empty() ? Clock::time_point{}
                                            : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  const size_t count = std::min(max_spans, spans_.size());
  std::fprintf(file, "{\"spans_total\": %zu, \"spans\": [\n", spans_.size());
  for (size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    tetrisched::JsonObj attrs;
    for (const auto& [key, value] : span.attrs) {
      attrs.Field(key, value);
    }
    std::string line = tetrisched::JsonObj()
                           .Field("id", static_cast<int64_t>(i))
                           .Field("name", span.name)
                           .Field("start_us", us(span.start))
                           .Field("end_us", us(span.end))
                           .Field("parent", span.parent)
                           .Field("group", span.group)
                           .FieldRaw("attrs", attrs.str())
                           .str();
    std::fprintf(file, "%s%s\n", line.c_str(), i + 1 < count ? "," : "");
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
