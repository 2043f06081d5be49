#include "bench/bench_json.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/common/atomic_io.h"
#include "src/common/json.h"

namespace tetrisched {
namespace {

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void BenchJsonWriter::Add(const std::string& name, double wall_ms,
                          std::map<std::string, double> extra) {
  records_.push_back({name, wall_ms, std::move(extra)});
}

std::string BenchJsonWriter::ToJson() const {
  // Where the numbers were taken: wall-clock rows only compare between runs
  // with the same host object.
  std::string out =
      "{\n  \"host\": {\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": \"" + JsonEscape(TETRISCHED_BUILD_TYPE) +
      "\", \"compiler\": \"" + JsonEscape(TETRISCHED_COMPILER) + "\"},\n" +
      "  \"benchmarks\": [\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    out += "    {\"name\": \"" + JsonEscape(record.name) + "\", \"wall_ms\": " +
           FormatNumber(record.wall_ms);
    for (const auto& [key, value] : record.extra) {
      out += ", \"" + JsonEscape(key) + "\": " + FormatNumber(value);
    }
    out += i + 1 < records_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool BenchJsonWriter::Requested() {
  const char* env = std::getenv("TETRISCHED_BENCH_JSON");
  return env != nullptr && *env != '\0';
}

bool BenchJsonWriter::WriteIfRequested(const std::string& default_path) const {
  const char* env = std::getenv("TETRISCHED_BENCH_JSON");
  if (env == nullptr || *env == '\0') {
    return false;
  }
  std::string value = env;
  std::string path = (value == "1" || value == "true")
                         ? default_path
                         : value + "/" + default_path;
  // Atomic replace: perf-tracking scripts must never read a half-written
  // artifact from a bench run that died mid-export.
  if (!WriteFileAtomic(path, ToJson())) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("bench_json: wrote %s\n", path.c_str());
  return true;
}

}  // namespace tetrisched
