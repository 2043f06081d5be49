// What one benchmark run reports, and the helpers every workload uses to
// fill it in.
#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/tracer.h"
#include "src/common/json.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs and short phases: checks the plumbing, not the numbers.
  bool smoke = false;
  // Scratch directory for the service socket and the span dump of a traced
  // run ("" = the current directory, and no span dump).
  std::string work_dir;
};

class Report {
 public:
  // Records a metric; a second Set of the same name overwrites it.
  void Set(const std::string& name, double value, const std::string& unit);
  // Records a correctness violation; any violation makes the run fail.
  void Violation(const std::string& what);
  // Adds a fingerprint / context field printed before the result line.
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);
  // Adds a fingerprint field whose value is already JSON (e.g. an array).
  void InfoRaw(const std::string& key, const std::string& json);

  int64_t attempted = 0;
  int64_t failed = 0;

  bool correct() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  std::string MetricsJson() const;
  std::string InfoJson() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  tetrisched::JsonObj info_;
};

// The highest percentile of `samples` that still has at least ten samples
// above it, from the requested `want` (e.g. 95 or 99) downwards, so a tail
// figure is never read off the last handful of samples. Sorts `samples`.
// Returns {percentile, value}.
std::pair<double, double> TailPercentile(std::vector<double>* samples,
                                         double want);
// Linear-interpolated percentile (p in [0, 100]) of sorted `samples`.
double PercentileSorted(const std::vector<double>& sorted, double p);
double Median(std::vector<double> samples);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Median wall time of `repeats` calls of `setup` (seconds).
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  return Median(std::move(seconds));
}

// Writes a traced run's spans to <work_dir>/spans-<workload>-<seed>.json
// (no-op without a work_dir). The dump is capped; the totals the per-layer
// metrics come from always cover every span.
void WriteSpans(const Tracer& tracer, const RunOptions& options);

// Workload entry points (sim_workloads.cc, svc_workload.cc).
void RunSimWorkload(const RunOptions& options, Report* report);
void RunServiceWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
