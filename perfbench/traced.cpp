// Traced mode: the benchmark's own round-robin training driver, built on
// the public layer APIs, with a span around every call into a layer.
//
// Worker k = step mod W trains through core::Worker, pushes over a comm
// transport, the core::ParameterServer answers, and the reply travels back
// over the same transport before the worker applies it. The `-sim`
// workloads move messages over the in-process channel transport
// (comm::ThreadTransport); dgs-w2-uds runs a real UDS loop: a
// SocketServerTransport (with its epoll thread) and one
// SocketClientTransport per worker, all driven from this thread.
//
// The nn and sparse spans cannot be taken inside Worker::compute_and_pack,
// so every step also replays its layer calls on a probe replica loaded
// with worker k's current parameters: Module::forward/backward on a batch
// of the workload's size, WorkerAlgorithm::step on the resulting
// gradients, and the up-codec's encode. The reply's decode_any is timed on
// the real reply, just before the worker applies it.
//
// Blocks of steps alternate spans-on and spans-off; the per-step time of
// the two gives the tracing overhead. Spans stay in memory and are printed
// once, at the end.
//
// The strict round-robin schedule fixes every push's staleness at W-1, so
// the staleness metric comes instead from one run of the workload's own
// engine (core::TrainingSession), before the driver starts.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "comm/socket_transport.h"
#include "comm/transport.h"
#include "core/evaluator.h"
#include "core/optimizer.h"
#include "core/server.h"
#include "core/worker.h"
#include "driver.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "obs/phase.h"
#include "sparse/compressor.h"

namespace perfbench {

namespace {

namespace comm = dgs::comm;
namespace core = dgs::core;
namespace nn = dgs::nn;
namespace obs = dgs::obs;
namespace sparse = dgs::sparse;

enum SpanId : std::uint32_t {
  kComputeAndPack,
  kApplyModelDiff,
  kForward,
  kBackward,
  kAlgoStep,
  kUpEncode,
  kDownDecode,
  kHandlePush,
  kSendPush,
  kServerRecvWait,
  kSendReply,
  kReplyWait,
  kEvalPass,
  kNumSpans,
};

constexpr std::array<const char*, kNumSpans> kSpanNames{
    "worker.compute_and_pack_us", "worker.apply_model_diff_us",
    "nn.forward_us",              "nn.backward_us",
    "sparse.algo_step_us",        "sparse.up_encode_us",
    "sparse.down_decode_us",      "server.handle_push_us",
    "comm.send_push_us",          "comm.server_recv_wait_us",
    "comm.send_reply_us",         "comm.reply_wait_us",
    "eval.pass_us",
};

// Steps per on/off block. A multiple of every workload's worker count, and
// equal to the evaluation cadence, so each block holds one evaluation.
constexpr std::size_t kBlockSteps = 64;
// Eq. 5 holds up to float32 summation-order rounding (the worker adds each
// reply; the server forms theta0 + M in one shot).
constexpr double kEq5Tolerance = 1e-4;

/// In-memory span durations (us) per span name; `on` gates recording for
/// the current block.
struct Recorder {
  bool on = false;
  std::array<std::vector<double>, kNumSpans> durations;
};

/// Times its scope into the recorder, on the steady clock the repo's
/// phase profiler uses.
class Span {
 public:
  Span(Recorder& recorder, SpanId id)
      : recorder_(recorder.on ? &recorder : nullptr), id_(id) {
    if (recorder_ != nullptr) begin_us_ = obs::Tracer::now_us();
  }
  ~Span() {
    if (recorder_ != nullptr)
      recorder_->durations[id_].push_back(obs::Tracer::now_us() - begin_us_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder* recorder_;
  SpanId id_;
  double begin_us_ = 0.0;
};

/// The worker<->server message path of one workload.
class Link {
 public:
  virtual ~Link() = default;
  virtual bool send_push(std::size_t worker, const comm::Message& push) = 0;
  virtual std::optional<comm::Message> receive_push() = 0;
  virtual bool send_reply(std::size_t worker, comm::Message reply) = 0;
  virtual std::optional<comm::Message> receive_reply(std::size_t worker) = 0;
  /// The server end's ByteCounter, and the sum over the worker ends; the
  /// latter is nullopt when both ends share one counter.
  [[nodiscard]] virtual comm::ByteCounter server_bytes() const = 0;
  [[nodiscard]] virtual std::optional<comm::ByteCounter> client_bytes() const = 0;
  /// True when the bytes cross a socket.
  [[nodiscard]] virtual bool on_wire() const = 0;
};

class ChannelLink final : public Link {
 public:
  explicit ChannelLink(std::size_t workers) : transport_(workers) {}
  ~ChannelLink() override { transport_.shutdown(); }

  bool send_push(std::size_t, const comm::Message& push) override {
    return transport_.send_push(push);
  }
  std::optional<comm::Message> receive_push() override {
    return transport_.receive_push();
  }
  bool send_reply(std::size_t worker, comm::Message reply) override {
    return transport_.send_reply(worker, std::move(reply));
  }
  std::optional<comm::Message> receive_reply(std::size_t worker) override {
    return transport_.receive_reply(worker);
  }
  comm::ByteCounter server_bytes() const override { return transport_.bytes(); }
  std::optional<comm::ByteCounter> client_bytes() const override {
    return std::nullopt;
  }
  bool on_wire() const override { return false; }

 private:
  comm::ThreadTransport transport_;
};

class UdsLink final : public Link {
 public:
  UdsLink(const std::string& path, std::size_t workers)
      : server_(comm::SocketAddress::uds(path), workers) {
    server_.start();
    for (std::size_t k = 0; k < workers; ++k)
      clients_.push_back(std::make_unique<comm::SocketClientTransport>(
          server_.bound_address(), static_cast<std::int32_t>(k)));
  }
  ~UdsLink() override {
    server_.shutdown();
    for (auto& client : clients_) client->close();
  }

  bool send_push(std::size_t worker, const comm::Message& push) override {
    return clients_.at(worker)->send_push(push);
  }
  std::optional<comm::Message> receive_push() override {
    return server_.receive_push();
  }
  bool send_reply(std::size_t worker, comm::Message reply) override {
    return server_.send_reply(worker, std::move(reply));
  }
  std::optional<comm::Message> receive_reply(std::size_t worker) override {
    comm::Message reply;
    if (!clients_.at(worker)->receive_reply(reply)) return std::nullopt;
    return reply;
  }
  comm::ByteCounter server_bytes() const override { return server_.bytes(); }
  std::optional<comm::ByteCounter> client_bytes() const override {
    comm::ByteCounter sum;
    for (const auto& client : clients_) sum += client->bytes();
    return sum;
  }
  bool on_wire() const override { return true; }

 private:
  comm::SocketServerTransport server_;
  std::vector<std::unique_ptr<comm::SocketClientTransport>> clients_;
};

std::string bytes_json(const comm::ByteCounter& bytes) {
  JsonLine line;
  line.integer("up", bytes.upward_bytes).integer("down", bytes.downward_bytes);
  return line.object();
}

class TracedDriver {
 public:
  TracedDriver(const Workload& workload, Setup setup, const std::string& socket)
      : setup_(std::move(setup)),
        config_(setup_.config),
        probe_(setup_.spec.build()),
        probe_params_(probe_->parameters()),
        phases_(config_.num_workers, /*warmup_steps=*/0),
        evaluator_(setup_.spec, setup_.data.test, config_.eval_batch),
        sampler_(setup_.data.train->size(), 0, 1, config_.batch_size,
                 config_.seed + 0x9B0BEULL),
        seq_(config_.num_workers, 0) {
    const std::vector<std::size_t> sizes = nn::param_layer_sizes(probe_params_);
    const std::vector<float> theta0 =
        core::initial_parameters(setup_.spec, config_.seed);
    core::ServerOptions options;
    options.num_workers = config_.num_workers;
    options.num_shards = config_.server_shards;
    options.secondary_compression = config_.compression.secondary;
    options.secondary_ratio_percent = config_.compression.secondary_ratio_percent;
    options.min_sparsify_size = config_.compression.min_sparsify_size;
    options.down_compress = config_.compression.down_compress;
    options.phases = &phases_;
    server_ = std::make_unique<core::ParameterServer>(sizes, theta0, options);
    for (std::size_t k = 0; k < config_.num_workers; ++k) {
      workers_.push_back(std::make_unique<core::Worker>(
          k, setup_.spec, setup_.data.train, config_, theta0));
      workers_.back()->bind_profiler(&phases_);
    }
    algorithm_ = core::make_worker_algorithm(config_.method, sizes, config_,
                                             config_.seed + 0x5EEDULL);
    batch_features_.resize(config_.batch_size * setup_.data.train->feature_dim());
    batch_labels_.resize(config_.batch_size);
    if (workload.uds)
      link_ = std::make_unique<UdsLink>(socket, config_.num_workers);
    else
      link_ = std::make_unique<ChannelLink>(config_.num_workers);
  }

  /// Alternate spans-on and spans-off blocks until `deadline` (steady
  /// seconds), with at least one block of each.
  void run(double deadline) {
    for (std::size_t block = 0; ok_ && (block < 2 || now_s() < deadline);
         ++block) {
      recorder_.on = block % 2 == 0;
      const obs::PhaseBreakdown before = phases_.breakdown();
      const std::uint64_t first_step = steps_;
      const double t0 = now_s();
      for (std::size_t i = 0; i < kBlockSteps && ok_; ++i) step();
      const double elapsed = now_s() - t0;
      const std::size_t mode = recorder_.on ? 1 : 0;
      block_seconds_[mode] += elapsed;
      block_steps_[mode] += steps_ - first_step;
      if (recorder_.on) {
        const obs::PhaseBreakdown after = phases_.breakdown();
        for (std::size_t p = 0; p < obs::kNumPhases; ++p)
          phase_us_on_[p] +=
              after.phases[p].total_us - before.phases[p].total_us;
      }
    }
  }

  void print(const std::vector<double>& generate_s, bool data_reproducible,
             bool data_seed_changes, double engine_staleness_p95) const {
    JsonLine spans_json;
    for (std::size_t s = 0; s < kNumSpans; ++s)
      spans_json.nums(kSpanNames[s], recorder_.durations[s]);

    JsonLine phases;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p)
      phases.num(obs::phase_name(static_cast<obs::Phase>(p)), phase_us_on_[p]);

    const std::vector<float> global = server_->global_model_flat();
    bool finite = all_finite(global);
    for (const auto& w : workers_) finite = finite && all_finite(w->model_flat());

    const std::optional<comm::ByteCounter> client_bytes = link_->client_bytes();
    JsonLine line;
    line.str("kind", "traced")
        .integer("workers", config_.num_workers)
        .integer("steps", steps_)
        .integer("steps_on", block_steps_[1])
        .integer("steps_off", block_steps_[0])
        .num("seconds_on", block_seconds_[1])
        .num("seconds_off", block_seconds_[0])
        .raw("spans", spans_json.object())
        .raw("phase_us_on", phases.object())
        .nums("generate_s", generate_s)
        .boolean("data_reproducible", data_reproducible)
        .boolean("data_seed_changes", data_seed_changes)
        .num("engine_staleness_p95", engine_staleness_p95)
        .num("push_density_mean",
             steps_ > 0 ? push_density_sum_ / static_cast<double>(steps_) : 0.0)
        .integer("reply_nnz", server_->total_reply_nnz())
        .integer("reply_dense", server_->total_reply_dense())
        .num("server_state_mb", static_cast<double>(server_->state_bytes()) / 1e6)
        .boolean("on_wire", link_->on_wire())
        .raw("driver_bytes", bytes_json(driver_bytes_))
        .raw("server_bytes", bytes_json(link_->server_bytes()))
        .raw("client_bytes", client_bytes ? bytes_json(*client_bytes) : "null")
        .integer("comm_failures", comm_failures_)
        .num("eq5_max_abs_diff", eq5_max_abs_diff_)
        .integer("eq5_violations", eq5_violations_)
        .boolean("finite", finite)
        .num("final_test_accuracy", last_accuracy_)
        .boolean("ok", ok_);
    line.print();
  }

 private:
  void step() {
    const std::size_t k = steps_ % config_.num_workers;
    const std::size_t train_size = setup_.data.train->size();
    const std::size_t epoch =
        std::min<std::size_t>(samples_ / train_size, config_.epochs - 1);
    const auto lr = static_cast<float>(config_.lr_at_epoch(epoch));

    core::IterationResult iter;
    {
      Span span(recorder_, kComputeAndPack);
      iter = workers_[k]->compute_and_pack(lr, epoch);
    }
    push_density_sum_ += iter.update_density;
    samples_ += iter.batch;
    probe_layers(k, lr, epoch);

    iter.push.seq = ++seq_[k];
    driver_bytes_.count_up(iter.push.wire_size());
    bool sent = false;
    {
      Span span(recorder_, kSendPush);
      sent = link_->send_push(k, iter.push);
    }
    std::optional<comm::Message> push;
    if (sent) {
      Span span(recorder_, kServerRecvWait);
      push = link_->receive_push();
    }
    if (!push) return fail_comm();

    comm::Message reply;
    {
      Span span(recorder_, kHandlePush);
      reply = server_->handle_push(*push);
    }
    driver_bytes_.count_down(reply.wire_size());
    {
      Span span(recorder_, kSendReply);
      sent = link_->send_reply(k, std::move(reply));
    }
    std::optional<comm::Message> got;
    if (sent) {
      Span span(recorder_, kReplyWait);
      got = link_->receive_reply(k);
    }
    if (!got || got->kind != comm::MessageKind::kModelDiff) return fail_comm();
    {
      Span span(recorder_, kDownDecode);
      (void)sparse::decode_any(got->payload);
    }
    {
      Span span(recorder_, kApplyModelDiff);
      workers_[k]->apply_model_diff(*got);
    }
    check_eq5(k);

    if (steps_ % kBlockSteps == 0) {
      const std::vector<float> theta = server_->global_model_flat();
      Span span(recorder_, kEvalPass);
      last_accuracy_ = evaluator_.evaluate(theta).accuracy;
    }
    ++steps_;
  }

  /// Replays Worker::compute_and_pack's layer calls on the probe replica.
  void probe_layers(std::size_t k, float lr, std::size_t epoch) {
    nn::param_scatter_values(workers_[k]->model_flat(), probe_params_);
    sampler_.next_batch(batch_indices_);
    setup_.data.train->fill_batch(batch_indices_, batch_features_.data(),
                                  batch_labels_.data());
    const nn::Tensor input = nn::Tensor::from(
        setup_.spec.input_shape(batch_indices_.size()), batch_features_);
    nn::param_zero_grads(probe_params_);
    nn::Tensor logits;
    {
      Span span(recorder_, kForward);
      logits = probe_->forward(input, /*train=*/true);
    }
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, batch_labels_);
    {
      Span span(recorder_, kBackward);
      (void)probe_->backward(loss.grad);
    }
    core::GradViews views;
    views.reserve(probe_params_.size());
    for (nn::Parameter* p : probe_params_) views.push_back(p->grad.flat());
    sparse::SparseUpdate update;
    {
      Span span(recorder_, kAlgoStep);
      update = algorithm_->step(views, lr, epoch);
    }
    {
      Span span(recorder_, kUpEncode);
      (void)sparse::compressor_for(algorithm_->up_codec()).encode(update);
    }
    algorithm_->recycle(std::move(update));
  }

  void check_eq5(std::size_t k) {
    const std::vector<float> local = workers_[k]->model_flat();
    const std::vector<float> global = server_->global_model_flat();
    double worst = local.size() == global.size()
                       ? 0.0
                       : std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < local.size() && i < global.size(); ++i)
      worst = std::max(worst, std::fabs(static_cast<double>(local[i]) -
                                        static_cast<double>(global[i])));
    if (!(worst <= kEq5Tolerance)) ++eq5_violations_;
    if (!(worst <= eq5_max_abs_diff_)) eq5_max_abs_diff_ = worst;
  }

  void fail_comm() {
    ++comm_failures_;
    ok_ = false;
  }

  Setup setup_;
  const dgs::core::TrainConfig& config_;
  nn::ModulePtr probe_;
  std::vector<nn::Parameter*> probe_params_;
  obs::PhaseProfiler phases_;
  core::Evaluator evaluator_;
  dgs::data::ShardSampler sampler_;
  std::unique_ptr<core::ParameterServer> server_;
  std::vector<std::unique_ptr<core::Worker>> workers_;
  std::unique_ptr<core::WorkerAlgorithm> algorithm_;
  std::unique_ptr<Link> link_;
  std::vector<std::uint64_t> seq_;

  std::vector<std::size_t> batch_indices_;
  std::vector<float> batch_features_;
  std::vector<std::int32_t> batch_labels_;

  Recorder recorder_;
  std::array<double, 2> block_seconds_{};
  std::array<std::uint64_t, 2> block_steps_{};
  std::array<double, obs::kNumPhases> phase_us_on_{};
  std::uint64_t steps_ = 0;
  std::uint64_t samples_ = 0;
  double push_density_sum_ = 0.0;
  comm::ByteCounter driver_bytes_;
  std::uint64_t comm_failures_ = 0;
  std::uint64_t eq5_violations_ = 0;
  double eq5_max_abs_diff_ = 0.0;
  double last_accuracy_ = 0.0;
  bool ok_ = true;
};

}  // namespace

int run_traced(const DriverArgs& args) {
  const double start = now_s();
  const Workload& workload = *args.workload;
  const std::string socket = args.work_dir + "/traced.sock";

  // The data layer: synthesis timed three times for a median, and the
  // seed checked to both reproduce and change the generated inputs.
  Setup setup = make_setup(workload, args.seed, socket);
  const std::uint64_t data_fp = fingerprint(setup.data);
  std::vector<double> generate_s{setup.generate_s};
  bool reproducible = true;
  for (int repeat = 0; repeat < 2; ++repeat) {
    const Setup again = make_setup(workload, args.seed, socket);
    generate_s.push_back(again.generate_s);
    reproducible = reproducible && fingerprint(again.data) == data_fp;
  }
  const bool seed_changes =
      fingerprint(make_setup(workload, args.seed + 1, socket).data) != data_fp;

  const Setup engine_setup =
      make_setup(workload, args.seed, args.work_dir + "/engine.sock");
  dgs::core::TrainingSession session(engine_setup.spec, engine_setup.data.train,
                                     engine_setup.data.test, engine_setup.config,
                                     engine_setup.engine);
  const double engine_staleness_p95 = session.run().staleness_hist.p95;

  TracedDriver driver(workload, std::move(setup), socket);
  driver.run(start + args.seconds);
  driver.print(generate_s, reproducible, seed_changes, engine_staleness_p95);
  return 0;
}

}  // namespace perfbench
