// 2-D convolution over [B, C, H, W] tensors. Supports stride and symmetric
// zero padding. Weights are stored [out_c, in_c, kh, kw] followed by
// bias[out_c].
//
// Two algorithms compute identical results:
//   * kDirect — the seed seven-deep loop nest, retained as the reference
//     (forward_direct / backward_direct).
//   * kIm2col (default) — forward, the weight gradient and the input
//     gradient are each one blocked GEMM per image over an implicit patch
//     matrix (nn/im2col.hpp): the GEMM packs its B panels straight from a
//     zero-padded copy of the image, or of the image's gradient planes for
//     the input gradient, so no patch matrix is built. The k-dimension is
//     the direct loop's accumulation order: (ic, ky, kx) for forward and
//     dW; for dX, the transposed convolution (flipped kernel over the
//     output gradient, dilated by the stride) with patch index (oc, a, b),
//     i.e. per input pixel the direct loop's (oc, oy, ox). Per-thread
//     scratch, shared by every layer and model replica the thread runs,
//     holds the padded copies, the patch offset tables and the flipped
//     kernel, so steady-state batches allocate nothing; no call starts a
//     parallel loop.
//
// Bit-identity contract: for inputs free of ±Inf/NaN where no parameter
// or accumulator is an exact (signed) zero at a divergence point, im2col
// results equal the direct loops bit for bit — the only op-sequence
// differences are `acc += w * 0` terms for padding, dilation and g == 0
// slots the direct loop skips (exact for any nonzero finite accumulator,
// and for the input gradient's, which starts at +0 and so can never
// become -0) and the GEMM's skip-zero-multiplier branch (a zero weight or
// gradient contributes not even a sign flip). tests/test_conv_im2col.cpp
// enforces this bitwise on fuzzed shapes, including zero-heavy gradients.
#pragma once

#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace skiptrain::nn {

enum class Conv2dAlgo {
  kAuto,    // currently: im2col
  kDirect,  // seed loop nest (verification oracle)
  kIm2col,  // GEMM-lowered
};

class Conv2d final : public ParamLayer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size, std::size_t stride = 1,
         std::size_t padding = 0);

  std::string name() const override;
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor& grad_input) override;

  std::unique_ptr<Layer> clone() const override;

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel_size() const { return k_; }

  void set_algorithm(Conv2dAlgo algo) { algo_ = algo; }
  Conv2dAlgo algorithm() const { return algo_; }

  /// Seed direct loops, kept as the verification reference.
  void forward_direct(const Tensor& input, Tensor& output);
  void backward_direct(const Tensor& input, const Tensor& grad_output,
                       Tensor& grad_input);

 private:
  std::size_t spatial_out(std::size_t in) const;
  ConvGeometry geometry(std::size_t h, std::size_t w) const;

  void forward_im2col(const Tensor& input, Tensor& output);
  void backward_im2col(const Tensor& input, const Tensor& grad_output,
                       Tensor& grad_input);

  std::size_t in_c_;
  std::size_t out_c_;
  std::size_t k_;
  std::size_t stride_;
  std::size_t pad_;
  Conv2dAlgo algo_ = Conv2dAlgo::kAuto;
  // ParamLayer::params_ holds the weights then the bias; the lowered
  // path's scratch is per thread (conv2d.cpp).
};

}  // namespace skiptrain::nn
