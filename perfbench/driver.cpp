// perfbench_driver: the compiled half of the repo benchmark.
//
//   perfbench_driver e2e|traced --workload <name> --seed <n> --seconds <s>
//                    [--work-dir <dir>]
//
// Prints one JSON record per line on stdout; perfbench/run.py builds this
// program, runs it and turns the records into the benchmark's metrics.
#include "driver.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

namespace perfbench {

void JsonLine::key(const char* name) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += name;
  body_ += "\":";
}

JsonLine& JsonLine::num(const char* name, double value) {
  key(name);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::integer(const char* name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonLine& JsonLine::str(const char* name, const std::string& value) {
  key(name);
  body_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n' ? ' ' : c);
  }
  body_ += '"';
  return *this;
}

JsonLine& JsonLine::boolean(const char* name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::nums(const char* name, const std::vector<double>& values) {
  key(name);
  body_ += '[';
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ',';
    if (std::isfinite(values[i])) {
      std::snprintf(buf, sizeof buf, "%.9g", values[i]);
      body_ += buf;
    } else {
      body_ += "null";
    }
  }
  body_ += ']';
  return *this;
}

JsonLine& JsonLine::raw(const char* name, const std::string& json) {
  key(name);
  body_ += json;
  return *this;
}

void JsonLine::print() const {
  std::printf("%s\n", object().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::DriverArgs;
  try {
    if (argc < 2) throw std::invalid_argument("missing mode (e2e|traced)");
    const std::string mode = argv[1];
    DriverArgs args;
    std::string workload;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (argc % 2 != 0) throw std::invalid_argument("flag without a value");
    args.workload = &perfbench::find_workload(workload);
    if (mode == "e2e") return perfbench::run_end_to_end(args);
    if (mode == "traced") return perfbench::run_traced(args);
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
