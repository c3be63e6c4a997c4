// The three benchmark workloads and the set-up they share.
//
// Every workload trains the CIFAR stand-in task from bench_common
// (make_cifar_task, res-MLP width 96) under a closed loop: each worker has
// one push in flight and blocks until its reply arrives. The workload seed
// is the only source of the inputs: it picks the synthetic dataset, the
// model initialisation and every sampler/jitter stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/session.h"

namespace perfbench {

struct Workload {
  const char* name;
  dgs::core::Method method;
  std::size_t workers;
  bool uds;  ///< ProcessEngine over UDS with forked workers.
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// Everything a training run needs, built from one seed.
struct Setup {
  dgs::data::SyntheticDataset data;
  dgs::nn::ModelSpec spec;
  dgs::core::TrainConfig config;
  dgs::core::EngineKind engine = dgs::core::EngineKind::kSimulated;
  double generate_s = 0.0;  ///< Dataset synthesis share of the set-up.
};

/// Dataset synthesis + model spec + config resolution for `seed`.
/// `socket_path` is where a UDS workload's server listens (relative paths
/// resolve against the working directory).
[[nodiscard]] Setup make_setup(const Workload& workload, std::uint64_t seed,
                               const std::string& socket_path);

/// The seed of sub-run `index` of a benchmark run started with `seed`.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::size_t index);

/// FNV-1a over the train and test features and labels: equal datasets
/// give equal fingerprints, so the benchmark can check that its seed both
/// reproduces and changes the inputs.
[[nodiscard]] std::uint64_t fingerprint(const dgs::data::SyntheticDataset& data);

/// True when `values` is non-empty and holds no NaN or infinity.
[[nodiscard]] bool all_finite(const std::vector<float>& values);

/// Seconds on the steady clock since an arbitrary origin.
[[nodiscard]] double now_s();

/// Peak resident set in MB of this process (`children` false) or of its
/// largest reaped child process (`children` true).
[[nodiscard]] double peak_rss_mb(bool children);

}  // namespace perfbench
