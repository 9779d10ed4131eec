#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "data/partition.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::data {

namespace {

/// Class prototypes: rows of a [classes, d] matrix with i.i.d. N(0, sep²/d·d)
/// entries scaled so the expected pairwise prototype distance equals
/// `separation * sqrt(2)` in noise-sigma units.
std::vector<float> make_prototypes(util::Rng& rng, std::size_t classes,
                                   std::size_t dim, double separation) {
  std::vector<float> prototypes(classes * dim);
  const float scale =
      static_cast<float>(separation / std::sqrt(static_cast<double>(dim)));
  rng.fill_normal(prototypes, 0.0f, 1.0f);
  for (auto& v : prototypes) v *= scale;
  return prototypes;
}

/// Writes prototype[c] + optional style + N(0,1) noise into `out`.
void emit_sample(util::Rng& rng, std::span<const float> prototypes,
                 std::size_t dim, std::size_t cls, const float* style,
                 float* out) {
  const float* proto = prototypes.data() + cls * dim;
  for (std::size_t i = 0; i < dim; ++i) {
    float v = proto[i] + static_cast<float>(rng.normal());
    if (style != nullptr) v += style[i];
    out[i] = v;
  }
}

/// Normals per emission block: about a millisecond of Box–Muller, so even
/// cnn_lenet's 1024 training samples of 3072 features split into dozens
/// of blocks across the pool.
constexpr std::size_t kNormalsPerBlock = std::size_t{1} << 16;

/// Emits items [0, count) on the global pool, in blocks of whole items, with
/// the bits of the serial loop `emit(stream, 0, count)`. `skip(rng, lo, hi)`
/// must advance `rng` exactly as `emit(rng, lo, hi)` does, without computing
/// its output (Rng::skip_normals). A serial pass runs it over every block,
/// recording each block's start state and leaving `stream` where the serial
/// loop would; each block is then emitted from its recorded state. Items
/// weigh about `normals_per_item` normals, which sizes the blocks.
template <typename Skip, typename Emit>
void emit_in_blocks(util::Rng& stream, std::size_t count,
                    std::size_t normals_per_item, Skip skip, Emit emit) {
  util::ThreadPool& pool = util::ThreadPool::global();
  // A pool that would run the blocks serially gains nothing from the
  // advance pass: run the serial loop itself.
  if (pool.size() <= 1 || util::ThreadPool::force_serial_active() ||
      pool.on_worker_thread()) {
    emit(stream, 0, count);
    return;
  }
  const std::size_t per_block =
      std::max<std::size_t>(1, kNormalsPerBlock / std::max<std::size_t>(
                                                      1, normals_per_item));
  const std::size_t blocks = (count + per_block - 1) / per_block;
  const auto bounds = [&](std::size_t block) {
    return std::pair{block * per_block,
                     std::min(count, (block + 1) * per_block)};
  };
  std::vector<util::Rng::State> starts(blocks);
  for (std::size_t block = 0; block < blocks; ++block) {
    starts[block] = stream.state();
    const auto [lo, hi] = bounds(block);
    skip(stream, lo, hi);
  }
  pool.parallel_for(0, blocks, [&](std::size_t block) {
    util::Rng rng;
    rng.set_state(starts[block]);
    const auto [lo, hi] = bounds(block);
    emit(rng, lo, hi);
  });
}

void apply_label_noise(util::Rng& rng, std::vector<std::int32_t>& labels,
                       std::size_t classes, double fraction) {
  if (fraction <= 0.0) return;
  for (auto& label : labels) {
    if (rng.bernoulli(fraction)) {
      label = static_cast<std::int32_t>(rng.uniform_int(classes));
    }
  }
}

Dataset make_iid_pool(util::Rng& rng, std::span<const float> prototypes,
                      std::size_t count, std::size_t dim, std::size_t classes,
                      double style_sigma) {
  Dataset pool;
  pool.features = tensor::Tensor({count, dim});
  pool.labels.resize(count);
  pool.num_classes = classes;
  const std::size_t normals = style_sigma > 0.0 ? 2 * dim : dim;
  emit_in_blocks(
      rng, count, normals,
      [&](util::Rng& block_rng, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          (void)block_rng.uniform_int(classes);
          block_rng.skip_normals(normals);
        }
      },
      [&](util::Rng& block_rng, std::size_t lo, std::size_t hi) {
        std::vector<float> style(dim);
        for (std::size_t i = lo; i < hi; ++i) {
          const auto cls =
              static_cast<std::size_t>(block_rng.uniform_int(classes));
          const float* style_ptr = nullptr;
          if (style_sigma > 0.0) {
            // Each evaluation sample comes from a fresh "writer", matching
            // the IID test distribution the paper evaluates against.
            block_rng.fill_normal(style, 0.0f,
                                  static_cast<float>(style_sigma));
            style_ptr = style.data();
          }
          emit_sample(block_rng, prototypes, dim, cls, style_ptr,
                      pool.features.raw() + i * dim);
          pool.labels[i] = static_cast<std::int32_t>(cls);
        }
      });
  return pool;
}

}  // namespace

FederatedData make_cifar_synthetic(const CifarSynConfig& config) {
  util::Rng master(config.seed);
  util::Rng proto_rng = master.fork(1);
  util::Rng train_rng = master.fork(2);
  util::Rng partition_rng = master.fork(3);
  util::Rng eval_rng = master.fork(4);

  const std::vector<float> prototypes =
      make_prototypes(proto_rng, config.num_classes, config.feature_dim,
                      config.class_separation);

  FederatedData out;
  out.name = "cifar10-syn";

  // Training pool: balanced class counts (like CIFAR-10's 5000/class).
  const std::size_t n = config.nodes * config.samples_per_node;
  out.train.features = tensor::Tensor({n, config.feature_dim});
  out.train.labels.resize(n);
  out.train.num_classes = config.num_classes;
  const std::size_t dim = config.feature_dim;
  emit_in_blocks(
      train_rng, n, dim,
      [&](util::Rng& rng, std::size_t lo, std::size_t hi) {
        rng.skip_normals((hi - lo) * dim);
      },
      [&](util::Rng& rng, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t cls = i % config.num_classes;
          emit_sample(rng, prototypes, dim, cls, nullptr,
                      out.train.features.raw() + i * dim);
          out.train.labels[i] = static_cast<std::int32_t>(cls);
        }
      });
  apply_label_noise(train_rng, out.train.labels, config.num_classes,
                    config.label_noise);

  out.node_indices = shard_partition(out.train.labels, config.nodes,
                                     config.shards_per_node, partition_rng);

  // Validation/test: the paper extracts the validation set as 50% of the
  // test set; the two remain disjoint.
  Dataset pool = make_iid_pool(eval_rng, prototypes, config.test_pool,
                               config.feature_dim, config.num_classes,
                               /*style_sigma=*/0.0);
  auto [validation, test] = split_dataset(pool, 0.5, eval_rng);
  out.validation = std::move(validation);
  out.test = std::move(test);
  return out;
}

FederatedData make_femnist_synthetic(const FemnistSynConfig& config) {
  util::Rng master(config.seed);
  util::Rng proto_rng = master.fork(11);
  util::Rng writer_rng = master.fork(12);
  util::Rng eval_rng = master.fork(13);

  const std::vector<float> prototypes =
      make_prototypes(proto_rng, config.num_classes, config.feature_dim,
                      config.class_separation);

  FederatedData out;
  out.name = "femnist-syn";
  out.train.num_classes = config.num_classes;

  // Per-writer sample counts: FEMNIST's top-256 writers have skewed sizes;
  // we draw from a clamped lognormal around the configured mean.
  std::vector<std::size_t> counts(config.nodes);
  std::size_t total = 0;
  for (auto& count : counts) {
    const double factor = std::exp(writer_rng.normal(0.0, 0.35));
    const double mean = static_cast<double>(config.mean_samples_per_node);
    count = static_cast<std::size_t>(
        std::clamp(mean * factor, mean * 0.5, mean * 2.0));
    total += count;
  }

  out.train.features = tensor::Tensor({total, config.feature_dim});
  out.train.labels.resize(total);

  // Writer `node` holds the contiguous samples [first[node], first[node] +
  // counts[node]).
  std::vector<std::size_t> first(config.nodes);
  out.node_indices.resize(config.nodes);
  for (std::size_t node = 0, cursor = 0; node < config.nodes; ++node) {
    first[node] = cursor;
    out.node_indices[node].resize(counts[node]);
    std::iota(out.node_indices[node].begin(), out.node_indices[node].end(),
              cursor);
    cursor += counts[node];
  }

  // Every writer forks its own stream, so the writer stream only sizes
  // the blocks: nothing to skip.
  const std::size_t dim = config.feature_dim;
  emit_in_blocks(
      writer_rng, config.nodes, (config.mean_samples_per_node + 1) * dim,
      [](util::Rng&, std::size_t, std::size_t) {},
      [&](util::Rng&, std::size_t lo, std::size_t hi) {
        std::vector<float> style(dim);
        for (std::size_t node = lo; node < hi; ++node) {
          util::Rng rng = writer_rng.fork(node);
          rng.fill_normal(style, 0.0f,
                          static_cast<float>(config.writer_style_sigma));

          // Near-homogeneous class mixture: every writer covers most
          // classes (this is what keeps FEMNIST "mild" non-IID in the
          // paper's Figure 7).
          const std::vector<double> mixture = dirichlet_weights(
              rng, config.class_mixture_alpha, config.num_classes);
          std::vector<double> cumulative(mixture.size());
          double acc = 0.0;
          for (std::size_t c = 0; c < mixture.size(); ++c) {
            acc += mixture[c];
            cumulative[c] = acc;
          }

          for (std::size_t s = first[node]; s < first[node] + counts[node];
               ++s) {
            const double u = rng.uniform();
            const std::size_t cls = static_cast<std::size_t>(
                std::lower_bound(cumulative.begin(), cumulative.end(), u) -
                cumulative.begin());
            const std::size_t clamped =
                std::min(cls, config.num_classes - 1);
            emit_sample(rng, prototypes, dim, clamped, style.data(),
                        out.train.features.raw() + s * dim);
            out.train.labels[s] = static_cast<std::int32_t>(clamped);
          }
        }
      });
  apply_label_noise(writer_rng, out.train.labels, config.num_classes,
                    config.label_noise);

  Dataset pool = make_iid_pool(eval_rng, prototypes, config.test_pool,
                               config.feature_dim, config.num_classes,
                               config.writer_style_sigma);
  auto [validation, test] = split_dataset(pool, 0.5, eval_rng);
  out.validation = std::move(validation);
  out.test = std::move(test);
  return out;
}

}  // namespace skiptrain::data
