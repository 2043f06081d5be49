// Machine-readable benchmark output.
//
// Benches accumulate (op name -> wall ms + numeric counters) records in a
// BenchJsonWriter and call WriteIfRequested() on exit. Nothing is written
// unless the TETRISCHED_BENCH_JSON environment variable is set:
//   TETRISCHED_BENCH_JSON=1          -> write <default_path> in the cwd
//   TETRISCHED_BENCH_JSON=some/dir   -> write some/dir/<default_path>
// This keeps the human-readable bench output unchanged while letting CI or a
// perf-tracking script record the solver's trajectory over time.

#ifndef TETRISCHED_BENCH_BENCH_JSON_H_
#define TETRISCHED_BENCH_BENCH_JSON_H_

#include <map>
#include <string>
#include <vector>

namespace tetrisched {

class BenchJsonWriter {
 public:
  // Records one benchmark op. `extra` holds named counters such as nodes,
  // lp_iterations, objective.
  void Add(const std::string& name, double wall_ms,
           std::map<std::string, double> extra = {});

  // {"host": {nproc, build_type, compiler}, "benchmarks": [records]}.
  std::string ToJson() const;

  // True iff TETRISCHED_BENCH_JSON is set (and non-empty).
  static bool Requested();

  // Writes ToJson() to the requested location; returns true if a file was
  // written. A warning is logged on I/O failure.
  bool WriteIfRequested(const std::string& default_path) const;

 private:
  struct Record {
    std::string name;
    double wall_ms = 0.0;
    std::map<std::string, double> extra;
  };
  std::vector<Record> records_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_BENCH_BENCH_JSON_H_
