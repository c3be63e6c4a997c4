// Entry points of the benchmark driver and the one-line JSON records it
// prints. perfbench/run.py reads the records and computes every metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct DriverArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir = ".";  ///< Scratch space for socket files.
};

/// Repeated TrainingSession runs, tracing off; one "run" record each.
int run_end_to_end(const DriverArgs& args);

/// The traced round-robin driver; one "traced" record.
int run_traced(const DriverArgs& args);

/// Builder for one JSON object printed as a single stdout line.
class JsonLine {
 public:
  JsonLine& num(const char* key, double value);
  JsonLine& integer(const char* key, std::uint64_t value);
  JsonLine& str(const char* key, const std::string& value);
  JsonLine& boolean(const char* key, bool value);
  JsonLine& nums(const char* key, const std::vector<double>& values);
  /// `json` must already be valid JSON (an object or array).
  JsonLine& raw(const char* key, const std::string& json);
  [[nodiscard]] std::string object() const { return "{" + body_ + "}"; }
  /// Print as one line and flush, so forked children never replay it.
  void print() const;

 private:
  void key(const char* name);
  std::string body_;
};

}  // namespace perfbench
