#include "harness/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Violation(const std::string& what) {
  violations_.push_back(what);
}

void Report::Info(const std::string& key, double value) {
  info_.Field(key, value);
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.Field(key, value);
}

void Report::InfoRaw(const std::string& key, const std::string& json) {
  info_.FieldRaw(key, json);
}

std::string Report::MetricsJson() const {
  tetrisched::JsonObj metrics;
  for (const Metric& metric : metrics_) {
    metrics.FieldRaw(metric.name, tetrisched::JsonObj()
                                      .Field("value", metric.value)
                                      .Field("unit", metric.unit)
                                      .str());
  }
  return metrics.str();
}

std::string Report::InfoJson() const { return info_.str(); }

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::pair<double, double> TailPercentile(std::vector<double>* samples,
                                         double want) {
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  double p = want;
  // Samples strictly above the p-th percentile: n * (1 - p/100).
  while (p > 50.0 && n * (1.0 - p / 100.0) < 10.0) {
    p -= 1.0;
  }
  return {p, PercentileSorted(*samples, p)};
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, 50.0);
}

void WriteSpans(const Tracer& tracer, const RunOptions& options) {
  constexpr size_t kMaxDumpedSpans = 200000;
  if (options.work_dir.empty()) {
    return;
  }
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (!tracer.WriteJson(path, kMaxDumpedSpans)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
