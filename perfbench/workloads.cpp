#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>


namespace perfbench {

namespace {

using dgs::core::Method;

// Four epochs of the CIFAR task (make_cifar_task's shortest schedule):
// every workload reaches its accuracy target by the second or third epoch,
// and one run takes about a second, so a benchmark run holds a dozen or
// more sub-runs for its medians. The LR decay points stay at 60%/80%.
constexpr std::size_t kEpochs = 4;

constexpr std::array<Workload, 3> kWorkloads{{
    {"dgs-w8-sim", Method::kDGS, 8, false},
    {"asgd-w8-sim", Method::kASGD, 8, false},
    {"dgs-w2-uds", Method::kDGS, 2, true},
}};

template <typename T>
void fnv_bytes(std::uint64_t& h, const T* data, std::size_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < count * sizeof(T); ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t index) {
  return seed * 1000 + index + 1;
}

Setup make_setup(const Workload& workload, std::uint64_t seed,
                 const std::string& socket_path) {
  Setup setup;
  const dgs::benchkit::Task task = dgs::benchkit::make_cifar_task(1.0, seed);
  const double t0 = now_s();
  setup.data = dgs::benchkit::load(task);
  setup.generate_s = now_s() - t0;
  setup.spec = dgs::benchkit::model_of(task, setup.data);

  dgs::benchkit::RunSpec run;
  run.method = workload.method;
  run.workers = workload.workers;
  run.epochs = kEpochs;
  if (workload.uds) run.transport = "uds";
  setup.config = dgs::benchkit::resolve(task, run);
  if (workload.uds) {
    setup.config.uds_path = socket_path;
    setup.engine = dgs::core::EngineKind::kProcess;
  }
  return setup;
}

std::uint64_t fingerprint(const dgs::data::SyntheticDataset& data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto* split : {data.train.get(), data.test.get()}) {
    for (std::size_t i = 0; i < split->size(); ++i) {
      const auto features = split->features_of(i);
      const std::int32_t label = split->label_of(i);
      fnv_bytes(h, features.data(), features.size());
      fnv_bytes(h, &label, 1);
    }
  }
  return h;
}

bool all_finite(const std::vector<float>& values) {
  return !values.empty() &&
         std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb(bool children) {
  rusage usage{};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
