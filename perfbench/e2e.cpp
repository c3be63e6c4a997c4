// End-to-end mode: set up and train the workload repeatedly, each sub-run
// on its own seed, until the time budget is spent. Set-up is timed apart
// from core::TrainingSession::run(), and tracing stays off.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <string>

#include "driver.h"

namespace perfbench {

namespace {

// Fewest sub-runs a benchmark run makes, even past its time budget, so
// every median rests on at least this many samples.
constexpr std::size_t kMinRuns = 3;
// Set-ups per sub-run, of which the fastest is kept. One set-up takes about
// 30 ms, short enough that a burst of host load, or the previous sub-run's
// worker processes exiting, can stretch it by half; the best of three rarely
// meets one.
constexpr std::size_t kSetupRepeats = 3;

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string curve_json(const dgs::core::RunResult& result) {
  std::string out = "[";
  char buf[80];
  for (std::size_t i = 0; i < result.curve.size(); ++i) {
    const dgs::core::EpochPoint& p = result.curve[i];
    std::snprintf(buf, sizeof buf, "%s[%.17g,%.17g]", i > 0 ? "," : "",
                  p.sim_seconds, p.test_accuracy);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int run_end_to_end(const DriverArgs& args) {
  const Workload& workload = *args.workload;
  const double start = now_s();
  for (std::size_t index = 0;
       index < kMinRuns || now_s() - start < args.seconds; ++index) {
    const std::uint64_t seed = sub_seed(args.seed, index);
    // Hand the previous sub-run's freed heap back to the kernel, so the
    // resident set a forked worker inherits does not depend on how many
    // sub-runs came before it.
    ::malloc_trim(0);
    JsonLine line;
    line.str("kind", "run").integer("index", index).integer("seed", seed);
    try {
      const std::string socket =
          args.work_dir + "/e2e" + std::to_string(index) + ".sock";
      std::optional<Setup> setup;
      std::optional<dgs::core::TrainingSession> session;
      double setup_s = std::numeric_limits<double>::infinity();
      for (std::size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
        session.reset();
        setup.reset();
        const double t0 = now_s();
        setup.emplace(make_setup(workload, seed, socket));
        session.emplace(setup->spec, setup->data.train, setup->data.test,
                        setup->config, setup->engine);
        setup_s = std::min(setup_s, now_s() - t0);
      }
      // The fingerprint pass is a benchmark check, not set-up work.
      const std::uint64_t data_fp = fingerprint(setup->data);
      const double t1 = now_s();
      const dgs::core::RunResult result = session->run();
      const double t2 = now_s();
      line.num("setup_s", setup_s)
          .num("run_s", t2 - t1)
          .str("data_fp", hex(data_fp))
          .integer("samples", result.samples_processed)
          .num("final_test_accuracy", result.final_test_accuracy)
          .boolean("finite", all_finite(result.final_model))
          .num("up_bytes_per_element", result.ledger.up_bytes_per_element)
          .num("down_bytes_per_element", result.ledger.down_bytes_per_element)
          .raw("curve", curve_json(result));
    } catch (const std::exception& e) {
      line.str("error", e.what());
    }
    line.print();
  }

  // Same seed, same inputs: regenerate the first sub-run's dataset.
  const Setup again =
      make_setup(workload, sub_seed(args.seed, 0), args.work_dir + "/again.sock");
  JsonLine summary;
  summary.str("kind", "summary")
      .str("repeat_data_fp", hex(fingerprint(again.data)))
      .num("rss_self_mb", peak_rss_mb(false))
      .num("rss_children_mb", peak_rss_mb(true));
  summary.print();
  return 0;
}

}  // namespace perfbench
