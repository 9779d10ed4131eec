// End-to-end benchmark program for the SkipTrain simulator.
//
// One process runs one workload (definitions in make_workload; the
// reasons for each are in benchmark/README.md) and prints one JSON object
// on stdout. It writes its summary CSV, traces and checkpoint scratch into
// the current directory, so every path it hashes (checkpoint fault draws
// key on the image path) is the same in every checkout.
//
//   skiptrain_bench --workload mlp_table3 --seed 42 --seconds 10 --trace 1
//
//   E2E passes     the workload end to end with tracing off and the
//                  registry at its default, repeated until the time budget
//                  is spent. End-to-end metrics are medians over passes of
//                  times scaled to the machine's idle speed (calibrate).
//   probes         (--trace 1) timed calls into one layer's public
//                  functions at the shapes the workload ran, each in a
//                  bench.probe.<name> span (<workload>.probes.trace.json).
//   traced passes  (--trace 1) alternate with the E2E passes, each under
//                  obs::start_tracing(<workload>.trace.<k>.json). Per-layer
//                  metrics are medians over these passes plus the probe
//                  results; registry counters are the difference of
//                  obs::snapshot() taken around each pass.
//
// benchmark/run.py builds this program, runs it, checks its output and
// turns the JSON into metric lines.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "fault/fault.hpp"
#include "fault/frame.hpp"
#include "graph/mixing.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"
#include "metrics/evaluator.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "plane/plane.hpp"
#include "quant/codec.hpp"
#include "sweep/config.hpp"
#include "sweep/dataset_cache.hpp"
#include "sweep/runner.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace skiptrain;

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  sweep::SweepGrid grid;
  // Trials run concurrently on the sweep's worker pool, each pinned to its
  // worker; otherwise one trial at a time, node-parallel on the global pool.
  bool trial_parallel = false;
  std::size_t checkpoint_every = 0;
  // GN-LeNet on image-shaped data: built here and driven through
  // sim::run_experiment, because the sweep's dataset cache only builds the
  // compact MLPs.
  bool lenet = false;
};

std::size_t thread_cap() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  sweep::PresetParams params;
  params.seed = seed;
  if (name == "mlp_table3") {
    // The paper's headline comparison: both datasets x {D-PSGD, SkipTrain
    // with the tuned schedule} x degrees {6, 8, 10}, 64 nodes, 12 trials.
    params.rounds = 20;
    w.grid = sweep::make_preset("table3", params);
    w.trial_parallel = true;
  } else if (name == "fleet_10k") {
    // 10 000 nodes on the implicit 6-regular graph: mostly sync rounds, so
    // the row-sharded gossip kernel and the setup dominate.
    params.rounds = 60;
    params.eval_every = 20;
    w.grid = sweep::make_preset("large_fleet", params);
    w.grid.gamma_trains = {1};
    w.grid.gamma_syncs = {3};
  } else if (name == "chaos_256") {
    // The paper's fleet size under churn and the full fault menu, with
    // both wire codecs and rotating checkpoint images.
    params.nodes = 256;
    params.rounds = 90;
    params.local_steps = 2;
    params.eval_every = 30;
    w.grid = sweep::make_preset("chaotic_fleet", params);
    w.grid.gamma_trains = {1};
    w.grid.gamma_syncs = {3};
    w.grid.codecs = {quant::Codec::kIdentity, quant::Codec::kInt8};
    w.trial_parallel = true;
    w.checkpoint_every = 20;
  } else if (name == "cnn_lenet") {
    // The paper's GN-LeNet (89 834 parameters) on 3x32x32 inputs: the only
    // workload on Conv2d, im2col, GroupNorm and large GEMMs.
    w.grid.name = name;
    w.grid.data.dataset = "cifar";
    w.grid.data.nodes = 16;
    w.grid.data.samples_per_node = 64;
    w.grid.data.test_pool = 400;
    w.grid.data.seed = seed;
    w.grid.base.algorithm = sim::Algorithm::kSkipTrain;
    w.grid.base.gamma_train = 2;
    w.grid.base.gamma_sync = 2;
    w.grid.base.degree = 6;
    w.grid.base.local_steps = 2;
    w.grid.base.batch_size = 8;
    w.grid.base.total_rounds = 4;
    w.grid.base.eval_every = 4;
    // Evaluation batches hold im2col scratch per node model, so the eval
    // sweep is kept short to bound memory.
    w.grid.base.eval_max_samples = 32;
    w.grid.base.seed = seed;
    w.lenet = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (mlp_table3 | fleet_10k | chaos_256 | "
                                "cnn_lenet)");
  }
  return w;
}

/// The dataset and initial model a trial of `w` runs on: what the sweep's
/// dataset cache makes for the MLP workloads, image-shaped synthetic
/// CIFAR-10 and GN-LeNet for cnn_lenet.
std::shared_ptr<const sweep::SharedWorkload> build_data(
    const Workload& w, const sweep::DataConfig& config) {
  if (!w.lenet) return sweep::build_workload(config);
  auto built = std::make_shared<sweep::SharedWorkload>();
  data::CifarSynConfig data_config;
  data_config.nodes = config.nodes;
  data_config.samples_per_node = config.samples_per_node;
  data_config.test_pool = config.test_pool;
  data_config.feature_dim = 3 * 32 * 32;
  data_config.seed = config.seed;
  built->data = data::make_cifar_synthetic(data_config);
  for (data::Dataset* split :
       {&built->data.train, &built->data.validation, &built->data.test}) {
    split->features.reshape({split->size(), 3, 32, 32});
  }
  built->prototype = nn::make_cifar_cnn();
  util::Rng rng(config.seed);
  nn::initialize(built->prototype, rng);
  return built;
}

/// One execution of the workload. cnn_lenet mirrors SweepRunner::run_trial:
/// the data build is billed to the setup phase and a throwing trial becomes
/// a failed row.
sweep::SweepReport run_workload(const Workload& w) {
  if (!w.lenet) {
    sweep::SweepOptions options;
    options.threads = w.trial_parallel ? thread_cap() : 1;
    const std::string ckpt_dir = w.name + ".ckpt";
    if (w.checkpoint_every != 0) {
      options.checkpoint_dir = ckpt_dir;
      options.checkpoint_every = w.checkpoint_every;
      options.keep_generations = w.grid.keep_generations;
    }
    sweep::SweepReport report = sweep::SweepRunner(options).run(w.grid);
    std::filesystem::remove_all(ckpt_dir);
    return report;
  }
  const obs::StopWatch watch;
  sweep::TrialResult trial;
  trial.spec = w.grid.expand().front();
  try {
    const std::uint64_t build_start = obs::now_ns();
    const auto built = build_data(w, trial.spec.data);
    const std::uint64_t build_ns = obs::now_ns() - build_start;
    trial.result = sim::run_experiment(built->data, built->prototype,
                                       trial.spec.options);
    trial.result.telemetry.phases.add(obs::Phase::kSetup, build_ns);
  } catch (const std::exception& e) {
    trial.status = sweep::TrialStatus::kFailed;
    trial.error = e.what();
  }
  trial.wall_seconds = watch.seconds();
  sweep::SweepReport report;
  report.name = w.name;
  report.failures = trial.ok() ? 0 : 1;
  if (trial.ok()) report.telemetry.merge(trial.result.telemetry);
  report.trials.push_back(std::move(trial));
  report.wall_seconds = watch.seconds();
  return report;
}

// --- passes ------------------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- machine-speed calibration ---------------------------------------------
//
// The reference machine's speed drifts by up to 2x over minutes (other
// guests on its host), which no per-run statistic removes. A fixed loop,
// timed on every benchmark thread at once right before and right after
// each pass, tracks that drift: over ~100 passes per workload the pass
// time moved with the loop time to a power of 0.3 to 0.65. End-to-end
// times are therefore scaled by sqrt(kReferenceLoopS / loop time), i.e. to
// the machine's idle speed. The loop is the benchmark's own code, so no
// change to the library can move it.

// The loop's time on the reference machine when it runs at full speed.
constexpr double kReferenceLoopS = 0.017;

struct Calibration {
  double loop_s = 0.0;         // median per-thread loop time
  double loop_cpu_s = 0.0;     // CPU time of the loop threads
  double process_cpu_s = 0.0;  // CPU time of the whole process meanwhile
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Calibration calibrate(std::size_t threads) {
  constexpr std::size_t kFloats = std::size_t{1} << 16;
  constexpr int kReps = 3000;
  std::vector<double> loop_s(threads);
  std::vector<double> cpu_s(threads);
  std::latch start(static_cast<std::ptrdiff_t>(threads));
  const double process_start = cpu_seconds();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&loop_s, &cpu_s, &start, t] {
        const double cpu_start = thread_cpu_seconds();
        std::vector<float> a(kFloats, 1.0f);
        const std::vector<float> b(kFloats, 0.5f);
        start.arrive_and_wait();
        const obs::StopWatch watch;
        for (int r = 0; r < kReps; ++r) {
          for (std::size_t i = 0; i < kFloats; ++i) {
            a[i] = a[i] * 0.999f + b[i];
          }
        }
        loop_s[t] = watch.seconds();
        volatile float sink = a[kFloats / 2];
        (void)sink;
        cpu_s[t] = thread_cpu_seconds() - cpu_start;
      });
    }
  }
  Calibration c;
  c.loop_s = median(loop_s);
  for (const double cpu : cpu_s) c.loop_cpu_s += cpu;
  c.process_cpu_s = cpu_seconds() - process_start;
  return c;
}

struct Pass {
  sweep::SweepReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Mean loop time of the calibrations around the pass, and the largest
  // share of process CPU time they saw spent outside the loop.
  double loop_s = 0.0;
  double foreign_cpu_share = 0.0;
  obs::Snapshot before;
  obs::Snapshot after;
  util::ThreadPool::PoolStats global_before{};
  util::ThreadPool::PoolStats global_after{};
  std::string csv;

  [[nodiscard]] double counter(std::string_view name) const {
    return static_cast<double>(after.counter_value(name) -
                               before.counter_value(name));
  }
  [[nodiscard]] double histogram_sum(std::string_view name) const {
    const obs::HistogramValue* a = after.find_histogram(name);
    const obs::HistogramValue* b = before.find_histogram(name);
    return static_cast<double>((a != nullptr ? a->sum : 0) -
                               (b != nullptr ? b->sum : 0));
  }
};

Pass run_pass(const Workload& w) {
  Pass pass;
  const util::ThreadPool& global = util::ThreadPool::global();
  pass.global_before = global.stats();
  pass.before = obs::snapshot();
  const Calibration calibration_before = calibrate(thread_cap());
  const double cpu_start = cpu_seconds();
  const obs::StopWatch watch;
  {
    OBS_SPAN("bench.pass");
    pass.report = run_workload(w);
  }
  pass.wall_s = watch.seconds();
  pass.cpu_s = cpu_seconds() - cpu_start;
  const Calibration calibration_after = calibrate(thread_cap());
  pass.loop_s = 0.5 * (calibration_before.loop_s + calibration_after.loop_s);
  for (const Calibration& c : {calibration_before, calibration_after}) {
    pass.foreign_cpu_share =
        std::max(pass.foreign_cpu_share,
                 ratio(c.process_cpu_s - c.loop_cpu_s, c.loop_cpu_s));
  }
  pass.after = obs::snapshot();
  pass.global_after = global.stats();
  const std::string csv_path = w.name + ".csv";
  pass.report.write_csv(csv_path);
  pass.csv = read_file(csv_path);
  return pass;
}

/// Runs passes until `budget_s` has elapsed and at least `min_passes` ran.
std::vector<Pass> run_passes(const Workload& w, double budget_s,
                             std::size_t min_passes) {
  std::vector<Pass> passes;
  const obs::StopWatch watch;
  while (passes.size() < min_passes || watch.seconds() < budget_s) {
    passes.push_back(run_pass(w));
  }
  return passes;
}

using Metrics = std::map<std::string, double>;
using Series = std::map<std::string, std::vector<double>>;

/// Every metric `of(pass)` reports, one value per pass.
Series per_pass(const std::vector<Pass>& passes,
                const std::function<Metrics(const Pass&)>& of) {
  Series series;
  for (const Pass& pass : passes) {
    for (const auto& [name, value] : of(pass)) series[name].push_back(value);
  }
  return series;
}

Metrics medians(const Series& series) {
  Metrics m;
  for (const auto& [name, values] : series) m[name] = median(values);
  return m;
}

Metrics median_metrics(const std::vector<Pass>& passes,
                       const std::function<Metrics(const Pass&)>& of) {
  return medians(per_pass(passes, of));
}

double phase_s(const Pass& pass, obs::Phase phase) {
  return pass.report.telemetry.phases.seconds[static_cast<std::size_t>(phase)];
}

/// The pass's times as measured.
Metrics raw_metrics(const Pass& pass) {
  return {
      {"wall_s", pass.wall_s},
      {"setup_s", phase_s(pass, obs::Phase::kSetup)},
      {"cpu_s", pass.cpu_s},
      {"loop_s", pass.loop_s},
  };
}

/// End-to-end metrics of one pass, times scaled to the machine's idle speed.
Metrics e2e_metrics(const Pass& pass) {
  double node_rounds = 0.0;
  for (const sweep::TrialResult& trial : pass.report.trials) {
    if (!trial.ok()) continue;
    node_rounds += static_cast<double>(trial.result.nodes) *
                   static_cast<double>(trial.result.telemetry.rounds);
  }
  const double speed = std::sqrt(kReferenceLoopS / pass.loop_s);
  const double wall_s = pass.wall_s * speed;
  return {
      {"wall_s", wall_s},
      {"node_rounds_per_s", ratio(node_rounds, wall_s)},
      {"setup_s", phase_s(pass, obs::Phase::kSetup) * speed},
      {"cpu_s", pass.cpu_s * speed},
  };
}

/// Mean over trials of the final mean test accuracy. Deterministic for a
/// seed but seed-dependent, so it is an output check, not a bounded metric.
double final_accuracy(const Pass& pass) {
  double accuracy = 0.0;
  std::size_t ok = 0;
  for (const sweep::TrialResult& trial : pass.report.trials) {
    if (!trial.ok()) continue;
    accuracy += trial.result.final_mean_accuracy;
    ++ok;
  }
  return ratio(accuracy, static_cast<double>(ok));
}

/// Registry counters that a deterministic run reproduces exactly, and the
/// metric each one is reported as.
const std::vector<std::pair<const char*, const char*>>& exact_counters() {
  static const std::vector<std::pair<const char*, const char*>> kCounters = {
      {"tensor.gemm_calls", "gemm.calls"},
      {"tensor.gemm_macs", "gemm.macs"},
      {"nn.conv_fwd_calls", "conv.fwd_calls"},
      {"nn.conv_bwd_calls", "conv.bwd_calls"},
      {"graph.rows_mixed", "gossip.rows_mixed"},
      {"sim.wire_bytes", "wire.bytes"},
      {"quant.rows_encoded", "codec.rows_encoded"},
      {"quant.wire_bytes", "codec.wire_bytes"},
      {"fault.io_injected", "fault.io.injected"},
      {"fault.io_retries", "fault.io.retries"},
      {"ckpt.files_written", "ckpt.files_written"},
      {"ckpt.bytes_written", "ckpt.bytes_written"},
  };
  return kCounters;
}

Metrics count_metrics(const Pass& pass) {
  Metrics counts;
  for (const auto& [metric, counter] : exact_counters()) {
    counts[metric] = pass.counter(counter);
  }
  return counts;
}

/// Per-layer metrics of one traced pass that come from the run itself:
/// phase accounting, sweep report fields and registry counters.
Metrics run_layer_metrics(const Pass& pass) {
  const sweep::SweepReport& report = pass.report;
  Metrics m = count_metrics(pass);
  double training_rounds = 0.0;
  double rounds = 0.0;
  double phase_total = 0.0;
  double delivery = 0.0;
  double availability = 0.0;
  std::size_t ok = 0;
  std::vector<double> trial_walls;
  for (const sweep::TrialResult& trial : report.trials) {
    trial_walls.push_back(trial.wall_seconds);
    if (!trial.ok()) continue;
    training_rounds +=
        static_cast<double>(trial.result.coordinated_training_rounds);
    rounds += static_cast<double>(trial.result.telemetry.rounds);
    phase_total += trial.result.telemetry.phases.total_seconds();
    delivery += trial.result.delivery_rate;
    availability += trial.result.mean_availability;
    ++ok;
  }
  double trial_wall_total = 0.0;
  for (const double wall : trial_walls) trial_wall_total += wall;

  const double train_s = phase_s(pass, obs::Phase::kTrain);
  const double gossip_s = phase_s(pass, obs::Phase::kGossip);
  const double eval_s = phase_s(pass, obs::Phase::kEval);
  m["sim.train_s"] = train_s;
  m["sim.train_ms_per_round"] = ratio(train_s * 1e3, training_rounds);
  m["sim.gossip_s"] = gossip_s;
  m["sim.gossip_ms_per_round"] = ratio(gossip_s * 1e3, rounds);
  m["sim.liveness_s"] = phase_s(pass, obs::Phase::kLiveness);
  m["sim.eval_s"] = eval_s;
  m["sim.encode_share"] =
      ratio(phase_s(pass, obs::Phase::kEncode), phase_total);
  m["sim.checkpoint_share"] =
      ratio(phase_s(pass, obs::Phase::kCheckpoint), phase_total);
  m["sim.unaccounted_s"] = trial_wall_total - phase_total;

  m["sweep.trial_s_p50"] = median(trial_walls);
  m["sweep.trial_s_max"] =
      trial_walls.empty()
          ? 0.0
          : *std::max_element(trial_walls.begin(), trial_walls.end());
  const auto utilization = [&](std::uint64_t busy_ns, std::size_t workers) {
    return ratio(static_cast<double>(busy_ns) * 1e-9,
                 pass.wall_s * static_cast<double>(workers));
  };
  m["util.trial_pool_utilization"] =
      utilization(report.trial_pool.busy_ns, report.trial_pool.workers);
  m["util.global_pool_utilization"] =
      utilization(pass.global_after.busy_ns - pass.global_before.busy_ns,
                  pass.global_after.workers);

  m["tensor.gemm_macs_per_call"] =
      ratio(m["tensor.gemm_macs"], m["tensor.gemm_calls"]);
  m["tensor.gemm_gmacs_per_s"] =
      ratio(m["tensor.gemm_macs"] * 1e-9, train_s + eval_s);
  m["fault.delivery_rate"] = ratio(delivery, static_cast<double>(ok));
  m["scenario.availability"] = ratio(availability, static_cast<double>(ok));
  m["ckpt.write_mb_per_s"] =
      ratio(m["ckpt.bytes_written"] * 1e-6,
            pass.histogram_sum("ckpt.write.ns") * 1e-9);
  return m;
}

// --- probes ------------------------------------------------------------------

constexpr std::size_t kMinSamples = 15;
constexpr std::size_t kMaxSamples = 2000;

/// Per-call latencies of one probe.
struct Latency {
  std::vector<double> ns;
  [[nodiscard]] double median_us() const {
    return median(ns) * 1e-3;
  }
};

/// Times one call of `fn` into `latency`, inside a span named `span`
/// (a string literal, as the tracer requires).
template <typename Fn>
void timed(Latency& latency, const char* span, Fn&& fn) {
  const std::uint64_t start = obs::now_ns();
  {
    OBS_SPAN(span);
    fn();
  }
  latency.ns.push_back(static_cast<double>(obs::now_ns() - start));
}

/// Runs `iteration` once untimed (buffers grow and pages fault in on the
/// first call), then until `budget_s` has elapsed and at least kMinSamples
/// iterations ran, at most kMaxSamples.
template <typename Iteration>
void sample(double budget_s, std::initializer_list<Latency*> latencies,
            Iteration&& iteration) {
  iteration();
  for (Latency* latency : latencies) latency->ns.clear();
  const obs::StopWatch watch;
  for (std::size_t i = 0;
       i < kMaxSamples && (i < kMinSamples || watch.seconds() < budget_s);
       ++i) {
    iteration();
  }
}

/// Probes that depend only on a trial's dataset and model.
struct ModelProbe {
  std::size_t dim = 0;
  double build_s = 0.0;
  std::size_t builds = 0;
  Latency sample_batch, forward, loss, backward, sgd_step;
  Latency eval_model;
  Latency encode_row, decode_row, frame;
  bool frame_verified = true;
};

/// One gossip round on an n x dim plane with the trial's mixing.
struct MixProbe {
  Latency mix;
  double bytes = 0.0;  // rows x (degree + 1) x dim x 4 per call
};

ModelProbe probe_model(const Workload& w, const sweep::TrialSpec& spec) {
  ModelProbe p;
  // Three builds of the trial's dataset and model, as its setup does them.
  std::vector<double> build_seconds;
  std::shared_ptr<const sweep::SharedWorkload> built;
  for (int i = 0; i < 3; ++i) {
    const obs::StopWatch watch;
    {
      OBS_SPAN("bench.probe.build_data");
      built = build_data(w, spec.data);
    }
    build_seconds.push_back(watch.seconds());
  }
  p.build_s = median(build_seconds);
  p.builds = build_seconds.size();
  p.dim = built->prototype.num_parameters();

  // One local SGD step of node 0 as Node::train_local runs it, one call at
  // a time.
  const sim::RunOptions& o = spec.options;
  nn::Sequential model = built->prototype.clone();
  nn::SgdOptimizer optimizer(nn::SgdOptions{o.learning_rate});
  const data::DatasetView view = built->data.node_view(0);
  util::Rng rng(util::hash_combine(o.seed, 0x0de50000ULL));
  tensor::Tensor features;
  tensor::Tensor grad_logits;
  std::vector<std::int32_t> labels;
  const tensor::Tensor* logits = nullptr;
  sample(0.25,
         {&p.sample_batch, &p.forward, &p.loss, &p.backward, &p.sgd_step},
         [&] {
           timed(p.sample_batch, "bench.probe.sample_batch", [&] {
             view.sample_batch(rng, o.batch_size, features, labels);
           });
           timed(p.forward, "bench.probe.forward",
                 [&] { logits = &model.forward(features); });
           if (grad_logits.shape() != logits->shape()) {
             grad_logits = tensor::Tensor(logits->shape());
           }
           timed(p.loss, "bench.probe.loss", [&] {
             (void)nn::softmax_cross_entropy(*logits, labels, grad_logits);
           });
           timed(p.backward, "bench.probe.backward", [&] {
             model.zero_grad();
             model.backward(features, grad_logits);
           });
           timed(p.sgd_step, "bench.probe.sgd_step",
                 [&] { optimizer.step(model); });
         });

  const metrics::Evaluator evaluator(
      o.eval_on_validation ? &built->data.validation : &built->data.test,
      o.eval_max_samples);
  nn::Sequential* const models[] = {&model};
  sample(0.2, {&p.eval_model}, [&] {
    timed(p.eval_model, "bench.probe.eval_model",
          [&] { (void)evaluator.evaluate_fleet(models); });
  });

  // The int8 codec and the CRC frame at the model's row size.
  const auto codec = quant::make_codec(quant::Codec::kInt8, o.seed);
  const std::span<const float> row = built->prototype.parameter_arena();
  quant::QuantizedRow wire;
  std::vector<float> decoded(row.size());
  std::vector<std::uint8_t> frame;
  sample(0.15, {&p.encode_row, &p.decode_row, &p.frame}, [&] {
    timed(p.encode_row, "bench.probe.encode_row",
          [&] { codec->encode(row, wire); });
    timed(p.decode_row, "bench.probe.decode_row",
          [&] { codec->decode(wire, decoded); });
    timed(p.frame, "bench.probe.frame", [&] {
      fault::encode_frame(wire, frame);
      p.frame_verified = p.frame_verified && fault::verify_frame(frame);
    });
  });
  return p;
}

MixProbe probe_mix(const sweep::TrialSpec& spec, std::size_t dim,
                   bool serial) {
  // The topology and weights run_experiment derives from the trial seed.
  const std::size_t n = spec.data.nodes;
  const graph::TopologySpec topology =
      graph::TopologySpec::parse(spec.options.topology);
  graph::MixingMatrix dense;
  graph::SparseMixing sparse;
  graph::MixingRef mixing;
  if (topology.kind == graph::TopologySpec::Kind::kDense) {
    util::Rng rng(util::hash_combine(spec.options.seed, 0x70700000ULL));
    dense = graph::MixingMatrix::metropolis_hastings(
        graph::make_random_regular(n, spec.options.degree, rng));
    mixing = dense;
  } else if (topology.kind == graph::TopologySpec::Kind::kKRegular) {
    const graph::ImplicitKRegular graph(
        n, topology.k, util::hash_combine(spec.options.seed, 0x6b726700ULL));
    sparse = graph::SparseMixing::metropolis_hastings(graph);
    mixing = sparse;
  } else {
    throw std::invalid_argument("probe_mix: csr topologies are not probed");
  }

  MixProbe p;
  p.bytes = static_cast<double>(n) *
            static_cast<double>(mixing.degree(0) + 1) *
            static_cast<double>(dim) * sizeof(float);
  plane::ParameterPlane plane(n, dim);
  std::ranges::fill(plane.current().view().flat(), 1.0f);
  // Same threading as the run: trial-parallel trials are pinned serial.
  std::optional<util::ThreadPool::ScopedForceSerial> serial_scope;
  if (serial) serial_scope.emplace();
  sample(0.3, {&p.mix}, [&] {
    timed(p.mix, "bench.probe.apply_mixing",
          [&] { plane::apply_mixing(mixing, plane); });
  });
  return p;
}

std::string mix_key(const sweep::TrialSpec& spec) {
  return spec.data.key() + "/" +
         graph::topology_token(spec.options.topology) + "/d" +
         std::to_string(spec.options.degree);
}

struct Probes {
  std::map<std::string, ModelProbe> models;  // by DataConfig::key()
  std::map<std::string, MixProbe> mixes;     // by mix_key()
};

Probes run_probes(const Workload& w) {
  Probes probes;
  for (const sweep::TrialSpec& spec : w.grid.expand()) {
    const std::string data_key = spec.data.key();
    if (!probes.models.contains(data_key)) {
      probes.models.emplace(data_key, probe_model(w, spec));
    }
    const std::string key = mix_key(spec);
    if (!probes.mixes.contains(key)) {
      probes.mixes.emplace(key, probe_mix(spec, probes.models.at(data_key).dim,
                                          w.trial_parallel));
    }
  }
  return probes;
}

std::vector<std::pair<const char*, const Latency*>> step_probes(
    const ModelProbe& p) {
  return {{"data.sample_batch_us", &p.sample_batch},
          {"nn.forward_us", &p.forward},
          {"nn.loss_us", &p.loss},
          {"nn.backward_us", &p.backward},
          {"nn.sgd_step_us", &p.sgd_step}};
}

/// How many timed calls each probe metric rests on, over all shapes.
Metrics probe_samples(const Probes& probes) {
  Metrics samples;
  const auto add = [&samples](const char* name, const Latency& latency) {
    samples[name] += static_cast<double>(latency.ns.size());
  };
  for (const auto& [key, model] : probes.models) {
    samples["data.build_s"] += static_cast<double>(model.builds);
    for (const auto& [name, latency] : step_probes(model)) add(name, *latency);
    add("metrics.eval_model_ms", model.eval_model);
    add("quant.encode_row_us", model.encode_row);
    add("quant.decode_row_us", model.decode_row);
    add("fault.frame_us", model.frame);
  }
  for (const auto& [key, mix] : probes.mixes) add("graph.mix_ms", mix.mix);
  return samples;
}

/// Probe-derived per-layer metrics, each weighted by how often the traced
/// pass executed the probed call at that shape.
Metrics probe_metrics(const Probes& probes, const Pass& pass,
                      std::size_t phase_threads) {
  Metrics weighted;
  double node_steps = 0.0;
  double step_seconds = 0.0;
  double evals = 0.0;
  double eval_ms = 0.0;
  double mix_calls = 0.0;
  double mix_ms = 0.0;
  double mix_bytes = 0.0;
  double trials = 0.0;
  for (const sweep::TrialResult& trial : pass.report.trials) {
    if (!trial.ok()) continue;
    const ModelProbe& model = probes.models.at(trial.spec.data.key());
    const MixProbe& mix = probes.mixes.at(mix_key(trial.spec));
    const double nodes = static_cast<double>(trial.result.nodes);
    const double steps =
        static_cast<double>(trial.result.coordinated_training_rounds) *
        nodes * static_cast<double>(trial.spec.options.local_steps);
    for (const auto& [name, latency] : step_probes(model)) {
      weighted[name] += steps * latency->median_us();
      step_seconds += steps * latency->median_us() * 1e-6;
    }
    node_steps += steps;
    const double trial_evals =
        static_cast<double>(trial.result.telemetry.phases
                                .calls[static_cast<std::size_t>(
                                    obs::Phase::kEval)]) *
        nodes;
    evals += trial_evals;
    eval_ms += trial_evals * model.eval_model.median_us() * 1e-3;
    const double rounds = static_cast<double>(trial.result.telemetry.rounds);
    mix_calls += rounds;
    mix_ms += rounds * mix.mix.median_us() * 1e-3;
    mix_bytes += rounds * mix.bytes;
    weighted["quant.encode_row_us"] += model.encode_row.median_us();
    weighted["quant.decode_row_us"] += model.decode_row.median_us();
    weighted["fault.frame_us"] += model.frame.median_us();
    trials += 1.0;
  }
  Metrics m;
  for (const auto& [name, latency] :
       step_probes(probes.models.begin()->second)) {
    m[name] = ratio(weighted[name], node_steps);
  }
  for (const char* name :
       {"quant.encode_row_us", "quant.decode_row_us", "fault.frame_us"}) {
    m[name] = ratio(weighted[name], trials);
  }
  m["nn.train_step_explained"] =
      ratio(step_seconds, phase_s(pass, obs::Phase::kTrain) *
                              static_cast<double>(phase_threads));
  m["metrics.eval_model_ms"] = ratio(eval_ms, evals);
  m["graph.mix_ms"] = ratio(mix_ms, mix_calls);
  m["graph.mix_gb_per_s"] = ratio(mix_bytes * 1e-9, mix_ms * 1e-3);
  m["graph.mix_explained"] =
      ratio(mix_ms, phase_s(pass, obs::Phase::kGossip) * 1e3);
  double build_s = 0.0;
  for (const auto& [key, model] : probes.models) build_s += model.build_s;
  m["data.build_s"] = build_s;
  return m;
}

// --- checks ------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Every trial's exact wire bytes must be a whole number of rows of the
/// probed model's dim, and exactly rounds x nodes rows when no node can go
/// down: the probes ran the shape the run executed.
Check check_wire_rows(const Pass& pass, const Probes& probes) {
  Check check{"probe_dim_matches_wire_bytes", true, ""};
  for (const sweep::TrialResult& trial : pass.report.trials) {
    if (!trial.ok()) continue;
    const sim::RunOptions& o = trial.spec.options;
    const fault::FaultPlan plan = fault::make_plan(o.faults);
    const std::size_t dim = probes.models.at(trial.spec.data.key()).dim;
    const std::uint64_t row_bytes =
        quant::exact_row_wire_bytes(o.exchange_codec, dim) +
        (plan.link_faults() ? fault::kFrameOverheadBytes : 0);
    const std::uint64_t wire = trial.result.telemetry.wire_bytes;
    const std::uint64_t max_rows =
        trial.result.telemetry.rounds * trial.result.nodes;
    const bool can_go_down =
        plan.crash_faults() || (!o.scenario.empty() && o.scenario != "none");
    const bool ok = wire % row_bytes == 0 && wire / row_bytes <= max_rows &&
                    (can_go_down || wire / row_bytes == max_rows);
    if (!ok && check.ok) {
      check.ok = false;
      check.detail = "trial " + std::to_string(trial.spec.index) + ": " +
                     std::to_string(wire) + " wire bytes vs " +
                     std::to_string(row_bytes) + " bytes per row of dim " +
                     std::to_string(dim);
    }
  }
  return check;
}

Check check_same_csv(const std::vector<const Pass*>& passes) {
  Check check{"summary_csv_identical_across_passes", true, ""};
  for (const Pass* pass : passes) {
    if (pass->csv != passes.front()->csv) {
      check.ok = false;
      check.detail = "summary CSV differs between passes";
    }
  }
  return check;
}

Check check_same_counts(const std::vector<const Pass*>& passes) {
  Check check{"counts_identical_across_passes", true, ""};
  const Metrics first = count_metrics(*passes.front());
  for (const Pass* pass : passes) {
    for (const auto& [name, value] : count_metrics(*pass)) {
      if (value != first.at(name) && check.ok) {
        check.ok = false;
        check.detail = name + " differs between passes";
      }
    }
  }
  return check;
}

Check check_accuracy(double accuracy) {
  return {"final_accuracy_in_range",
          std::isfinite(accuracy) && accuracy > 0.0 && accuracy <= 1.0,
          "final_accuracy = " + std::to_string(accuracy)};
}

// --- output ------------------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": " + json_number(value);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("skiptrain_bench",
                       "run one benchmark workload and print its metrics as "
                       "JSON");
  args.add_string("workload", "mlp_table3",
                  "mlp_table3 | fleet_10k | chaos_256 | cnn_lenet");
  args.add_int("seed", 42, "workload seed (data, topology, schedule draws)");
  args.add_double("seconds", 10.0, "measurement time budget");
  args.add_int("trace", 0,
               "1 = also run the probes and the traced passes (per-layer "
               "metrics)");
  try {
    args.parse(argc, argv);
    if (args.get_int("seed") < 0 || args.get_double("seconds") <= 0.0) {
      throw std::invalid_argument("--seed must be >= 0 and --seconds > 0");
    }
    const std::string& name = args.get_string("workload");
    const Workload w = make_workload(
        name, static_cast<std::uint64_t>(args.get_int("seed")));
    const bool traced = args.get_int("trace") != 0;
    const double seconds = args.get_double("seconds");

    std::vector<Check> checks;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto tally = [&](const std::vector<Pass>& passes) {
      for (const Pass& pass : passes) {
        attempted += pass.report.trials.size();
        failed += pass.report.failures;
      }
    };

    std::vector<Pass> e2e_passes;
    std::vector<Pass> traced_passes;
    std::optional<Probes> probes;
    if (!traced) {
      e2e_passes = run_passes(w, seconds, 3);
    } else {
      if (!obs::start_tracing(name + ".probes.trace.json")) {
        throw std::runtime_error("cannot open the probe trace file");
      }
      probes = run_probes(w);
      obs::stop_tracing();
      // Untraced and traced passes alternate, so the machine's speed drift
      // cancels out of the tracing overhead. Traced pass k writes
      // <workload>.trace.<k>.json.
      const obs::StopWatch watch;
      while (traced_passes.size() < 2 || watch.seconds() < seconds) {
        e2e_passes.push_back(run_pass(w));
        const std::string trace_path =
            name + ".trace." + std::to_string(traced_passes.size()) + ".json";
        if (!obs::start_tracing(trace_path)) {
          throw std::runtime_error("cannot open " + trace_path);
        }
        traced_passes.push_back(run_pass(w));
        obs::stop_tracing();
      }
    }
    tally(e2e_passes);
    tally(traced_passes);
    Metrics e2e = median_metrics(e2e_passes, e2e_metrics);
    e2e["peak_rss_mb"] = peak_rss_mb();
    const Series raw_series = per_pass(e2e_passes, raw_metrics);

    // The run is deterministic and tracing is observational only, so every
    // pass, traced or not, must write the same summary CSV and counts.
    std::vector<const Pass*> all_passes;
    for (const auto* passes : {&e2e_passes, &traced_passes}) {
      for (const Pass& pass : *passes) all_passes.push_back(&pass);
    }
    checks.push_back(check_same_csv(all_passes));
    checks.push_back(check_same_counts(all_passes));
    // The calibration measures the machine only while nothing else of the
    // process runs (an idle thread that kept spinning would slow the loop
    // and flatter every scaled time).
    double foreign = 0.0;
    for (const Pass* pass : all_passes) {
      foreign = std::max(foreign, pass->foreign_cpu_share);
    }
    checks.push_back({"process_idle_during_calibration", foreign <= 0.2,
                      "CPU outside the loop: " + std::to_string(foreign)});
    const double accuracy = final_accuracy(e2e_passes.front());
    checks.push_back(check_accuracy(accuracy));

    Metrics layers;
    Metrics samples;
    if (traced) {
      const std::size_t phase_threads =
          w.trial_parallel ? 1 : util::ThreadPool::global().size();
      layers = median_metrics(traced_passes, run_layer_metrics);
      for (const auto& [metric, value] : median_metrics(
               traced_passes, [&](const Pass& pass) {
                 return probe_metrics(*probes, pass, phase_threads);
               })) {
        layers[metric] = value;
      }
      samples = probe_samples(*probes);
      layers["obs.trace_overhead_frac"] =
          ratio(median_metrics(traced_passes, e2e_metrics).at("wall_s"),
                e2e.at("wall_s")) -
          1.0;
      checks.push_back(check_wire_rows(traced_passes.front(), *probes));
      bool frames = true;
      for (const auto& [key, model] : probes->models) {
        frames = frames && model.frame_verified;
      }
      checks.push_back({"probe_frames_verify", frames, ""});
    }
    checks.push_back({"no_failed_trials", failed == 0,
                      std::to_string(failed) + " of " +
                          std::to_string(attempted) + " trials failed"});
    const std::size_t workers = util::ThreadPool::global().size();
    checks.push_back({"global_pool_within_cap", workers <= thread_cap(),
                      std::to_string(workers) + " workers"});
    for (const sweep::TrialResult& trial : e2e_passes.front().report.trials) {
      if (!trial.ok()) {
        std::fprintf(stderr, "skiptrain_bench: trial %zu failed: %s\n",
                     trial.spec.index, trial.error.c_str());
      }
    }

    std::string checks_json = "[";
    for (const Check& check : checks) {
      if (checks_json.size() > 1) checks_json += ", ";
      checks_json += "{\"name\": " + json_string(check.name) +
                     ", \"ok\": " + (check.ok ? "true" : "false") +
                     ", \"detail\": " + json_string(check.detail) + "}";
    }
    checks_json += "]";
    std::string series_json = "{";
    for (const auto& [metric, values] : raw_series) {
      if (series_json.size() > 1) series_json += ", ";
      series_json += json_string(metric) + ": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        series_json += (i == 0 ? "" : ", ") + json_number(values[i]);
      }
      series_json += "]";
    }
    series_json += "}";
    std::printf(
        "{\"workload\": %s, \"seed\": %lld, \"threads\": %zu, "
        "\"trials_per_pass\": %zu, \"e2e_passes\": %zu, "
        "\"traced_passes\": %zu, \"attempted\": %zu, \"failed\": %zu, "
        "\"final_accuracy\": %s, \"e2e\": %s, \"raw_per_pass\": %s, "
        "\"layers\": %s, \"probe_samples\": %s, \"checks\": %s}\n",
        json_string(name).c_str(),
        static_cast<long long>(args.get_int("seed")), thread_cap(),
        e2e_passes.front().report.trials.size(), e2e_passes.size(),
        traced_passes.size(), attempted, failed,
        json_number(accuracy).c_str(), json_object(e2e).c_str(),
        series_json.c_str(), json_object(layers).c_str(),
        json_object(samples).c_str(), checks_json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skiptrain_bench: %s\n", e.what());
    return 2;
  }
}
