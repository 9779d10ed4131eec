#include "nn/pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "tensor/ops.hpp"
#include "util/isa.hpp"

namespace skiptrain::nn {

namespace {

// The 2x2 window: up to eight adjacent windows of one output row at a
// time, one per Vec8 lane. A window's four values, in row-major order from
// its origin, are the even and odd lanes of two input rows; the strict `>`
// select chain over them is the scalar scan's, lane by lane. A row's last
// windows run four to a vector (the upper lanes see zeros and are
// dropped), then one at a time.
using util::Mask8;
using util::Vec8;
using util::vec_at;
constexpr std::size_t kLanes = 8;

/// The first maximum of each lane's window under strict `>` (best) and
/// its row-major position 0..3 (arg), for the kLive windows whose
/// top-left corners are row0[0], row0[2], ...; lanes past kLive are zero.
template <std::size_t kLive>
[[gnu::always_inline]] inline void window_max(const float* row0,
                                              const float* row1, Vec8& best,
                                              Mask8& arg) {
  static_assert(kLive == kLanes || kLive == kLanes / 2);
  constexpr Mask8 kEven{0, 2, 4, 6, 8, 10, 12, 14};
  constexpr Mask8 kOdd{1, 3, 5, 7, 9, 11, 13, 15};
  const Vec8 a0 = vec_at(row0), b0 = vec_at(row1);
  const Vec8 a1 = kLive == kLanes ? Vec8(vec_at(row0 + kLanes)) : Vec8{};
  const Vec8 b1 = kLive == kLanes ? Vec8(vec_at(row1 + kLanes)) : Vec8{};
  const Vec8 win[4] = {
      __builtin_shuffle(a0, a1, kEven), __builtin_shuffle(a0, a1, kOdd),
      __builtin_shuffle(b0, b1, kEven), __builtin_shuffle(b0, b1, kOdd)};
  best = win[0];
  arg = Mask8{};
  for (int k = 1; k < 4; ++k) {
    const Mask8 gt = win[k] > best;
    best = gt ? win[k] : best;
    arg = gt ? Mask8{} + k : arg;
  }
}

/// The same scan for the one window at row0[0].
[[gnu::always_inline]] inline int window_max(const float* row0,
                                             const float* row1, float& best) {
  const float win[4] = {row0[0], row0[1], row1[0], row1[1]};
  best = win[0];
  int arg = 0;
  for (int k = 1; k < 4; ++k) {
    const bool gt = win[k] > best;
    best = gt ? win[k] : best;
    arg = gt ? k : arg;
  }
  return arg;
}

/// Calls chunk(ox, live) for each run of the row's ow windows: eight at a
/// time, then four, then one (live = std::integral_constant 8, 4 or 1).
template <typename Chunk>
[[gnu::always_inline]] inline void for_each_chunk(std::size_t ow,
                                                  Chunk&& chunk) {
  std::size_t ox = 0;
  for (; ox + kLanes <= ow; ox += kLanes) {
    chunk(ox, std::integral_constant<std::size_t, kLanes>{});
  }
  if (ox + kLanes / 2 <= ow) {
    chunk(ox, std::integral_constant<std::size_t, kLanes / 2>{});
    ox += kLanes / 2;
  }
  for (; ox < ow; ++ox) chunk(ox, std::integral_constant<std::size_t, 1>{});
}

SKIPTRAIN_GEMM_CLONES
void max_pool2_forward(std::size_t planes, std::size_t h, std::size_t w,
                       const float* in, float* out) {
  const std::size_t oh = h / 2, ow = w / 2;
  for (std::size_t pl = 0; pl < planes; ++pl) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* row0 = in + (pl * h + 2 * oy) * w;
      const float* row1 = row0 + w;
      float* o = out + (pl * oh + oy) * ow;
      for_each_chunk(ow, [&](std::size_t ox, auto live)
                             __attribute__((always_inline)) {
        constexpr std::size_t kLive = decltype(live)::value;
        if constexpr (kLive == 1) {
          window_max(row0 + 2 * ox, row1 + 2 * ox, o[ox]);
        } else {
          Vec8 best;
          Mask8 arg;
          window_max<kLive>(row0 + 2 * ox, row1 + 2 * ox, best, arg);
          float part[kLanes];
          vec_at(part) = best;
          std::copy(part, part + kLive, o + ox);
        }
      });
    }
  }
}

/// Writes every element of grad_in: `0.0f + g` at each window's maximum,
/// the sum the zero-then-accumulate scan makes (+0.0 for a g of -0.0), and
/// +0.0 everywhere else, rows and columns outside every window included.
SKIPTRAIN_GEMM_CLONES
void max_pool2_backward(std::size_t planes, std::size_t h, std::size_t w,
                        const float* in, const float* gout, float* gin) {
  constexpr Mask8 kLow{0, 8, 1, 9, 2, 10, 3, 11};
  constexpr Mask8 kHigh{4, 12, 5, 13, 6, 14, 7, 15};
  const std::size_t oh = h / 2, ow = w / 2;
  for (std::size_t pl = 0; pl < planes; ++pl) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* row0 = in + (pl * h + 2 * oy) * w;
      const float* row1 = row0 + w;
      const float* g = gout + (pl * oh + oy) * ow;
      float* d0 = gin + (pl * h + 2 * oy) * w;
      float* d1 = d0 + w;
      for_each_chunk(ow, [&](std::size_t ox, auto live)
                             __attribute__((always_inline)) {
        constexpr std::size_t kLive = decltype(live)::value;
        if constexpr (kLive == 1) {
          float best;
          const int arg = window_max(row0 + 2 * ox, row1 + 2 * ox, best);
          const float routed = 0.0f + g[ox];
          d0[2 * ox] = arg == 0 ? routed : 0.0f;
          d0[2 * ox + 1] = arg == 1 ? routed : 0.0f;
          d1[2 * ox] = arg == 2 ? routed : 0.0f;
          d1[2 * ox + 1] = arg == 3 ? routed : 0.0f;
        } else {
          Vec8 best;
          Mask8 arg;
          window_max<kLive>(row0 + 2 * ox, row1 + 2 * ox, best, arg);
          float gpart[kLanes] = {};
          std::copy(g + ox, g + ox + kLive, gpart);
          const Vec8 routed =
              0.0f + Vec8(vec_at(kLive == kLanes ? g + ox : gpart));
          Vec8 val[4];
          for (int k = 0; k < 4; ++k) val[k] = arg == k ? routed : Vec8{};
          vec_at(d0 + 2 * ox) = __builtin_shuffle(val[0], val[1], kLow);
          vec_at(d1 + 2 * ox) = __builtin_shuffle(val[2], val[3], kLow);
          if constexpr (kLive == kLanes) {
            vec_at(d0 + 2 * ox + kLanes) =
                __builtin_shuffle(val[0], val[1], kHigh);
            vec_at(d1 + 2 * ox + kLanes) =
                __builtin_shuffle(val[2], val[3], kHigh);
          }
        }
      });
      std::fill(d0 + 2 * ow, d0 + w, 0.0f);
      std::fill(d1 + 2 * ow, d1 + w, 0.0f);
    }
    std::fill(gin + (pl * h + 2 * oh) * w, gin + (pl + 1) * h * w, 0.0f);
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  if (window_ == 0) throw std::invalid_argument("MaxPool2d: window must be > 0");
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(" + std::to_string(window_) + ")";
}

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 4) {
    throw std::invalid_argument("MaxPool2d: expected [B, C, H, W], got " +
                                tensor::shape_to_string(input_shape));
  }
  if (input_shape[2] < window_ || input_shape[3] < window_) {
    throw std::invalid_argument("MaxPool2d: input smaller than window");
  }
  return {input_shape[0], input_shape[1], input_shape[2] / window_,
          input_shape[3] / window_};
}

template <typename Visit>
void MaxPool2d::for_each_argmax(const Tensor& input, Visit&& visit) const {
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = h / window_;
  const std::size_t ow = w / window_;

  const auto in = input.data();
  std::size_t out_idx = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      const std::size_t plane = (b * channels + c) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          std::size_t best_idx = plane + (oy * window_) * w + ox * window_;
          float best = in[best_idx];
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t idx =
                  plane + (oy * window_ + ky) * w + (ox * window_ + kx);
              if (in[idx] > best) {
                best = in[idx];
                best_idx = idx;
              }
            }
          }
          visit(out_idx++, best_idx);
        }
      }
    }
  }
}

void MaxPool2d::forward(const Tensor& input, Tensor& output) {
  if (window_ == 2) {
    max_pool2_forward(input.dim(0) * input.dim(1), input.dim(2),
                      input.dim(3), input.raw(), output.raw());
    return;
  }
  const auto in = input.data();
  const auto out = output.data();
  for_each_argmax(input, [&](std::size_t out_idx, std::size_t in_idx) {
    out[out_idx] = in[in_idx];
  });
}

void MaxPool2d::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor& grad_input) {
  if (window_ == 2) {
    max_pool2_backward(input.dim(0) * input.dim(1), input.dim(2),
                       input.dim(3), input.raw(), grad_output.raw(),
                       grad_input.raw());
    return;
  }
  grad_input.zero();
  const auto gout = grad_output.data();
  const auto gin = grad_input.data();
  for_each_argmax(input, [&](std::size_t out_idx, std::size_t in_idx) {
    gin[in_idx] += gout[out_idx];
  });
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(window_);
}

Shape Flatten::output_shape(const Shape& input_shape) const {
  if (input_shape.empty()) {
    throw std::invalid_argument("Flatten: empty input shape");
  }
  std::size_t flat = 1;
  for (std::size_t i = 1; i < input_shape.size(); ++i) flat *= input_shape[i];
  return {input_shape[0], flat};
}

void Flatten::forward(const Tensor& input, Tensor& output) {
  tensor::copy(input.data(), output.data());
}

void Flatten::backward(const Tensor& input, const Tensor& grad_output,
                       Tensor& grad_input) {
  (void)input;
  tensor::copy(grad_output.data(), grad_input.data());
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>();
}

}  // namespace skiptrain::nn
