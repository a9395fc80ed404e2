/**
 * @file
 * Vectorized hot-path kernels behind the functional layer ops.
 *
 * `nn::conv2d` and `nn::fullyConnected` (ops.cc) validate shapes and
 * then delegate here. Each kernel has a scalar reference twin used
 * by the scalar-vs-SIMD equivalence tests (tests/nn/test_kernels.cc)
 * and the before/after columns of bench_micro_kernels.
 *
 * The load-bearing invariant: every kernel accumulates exact int64
 * sums of exact int32 products of the raw Q7.8 values, identical to
 * the scalar reference — integer addition is associative, so lane
 * order cannot change the total, and requantisation happens exactly
 * once per output neuron, after the full reduction. Reports are
 * therefore byte-identical whichever backend `core/simd.h` selects.
 *
 * Conv is input-stationary and skips zero neurons, as the paper's
 * hardware does: for each window tap it walks the input column's
 * non-zero neurons (compacted once per layer), and each one
 * broadcast-multiply-adds a contiguous vector of filter weights
 * (`PackedConvWeights`). It vectorises over filters, so a layer's
 * depth does not matter and zero neurons cost nothing. The int32
 * lanes are flushed into int64 before they can wrap (see
 * convForward), which keeps the sums exact.
 */

#ifndef CNV_NN_KERNELS_H
#define CNV_NN_KERNELS_H

#include <cstdint>
#include <vector>

#include "core/arena.h"
#include "nn/layer.h"
#include "tensor/neuron_tensor.h"

namespace cnv::nn::kernels {

/**
 * Exact raw dot product of two contiguous runs of n fixed-point
 * values: sum of a[i].raw() * b[i].raw() in a 64-bit accumulator.
 */
tensor::Accum dotRaw(const tensor::Fixed16 *a, const tensor::Fixed16 *b,
                     std::size_t n);

/**
 * A conv layer's weights in the input-stationary layout:
 * `[group][ky][kx][z][filter]`, each group's filters padded with
 * zero weights to a multiple of `core::simd::kMacLanes`, so the
 * weights one input neuron meets at one tap are contiguous. This is
 * how nn::Network stores a conv node's weights; it unpacks a
 * FilterBank only when weightsOf() asks for one.
 */
struct PackedConvWeights
{
    tensor::Shape4 shape;      ///< the source FilterBank's shape
    int groups = 1;
    int paddedFilters = 0;     ///< filter stride per group
    std::int32_t maxAbs = 0;   ///< largest |raw| weight
    std::vector<tensor::Fixed16> data;
};

/** Lay `weights` out for convForward; `groups` must divide the bank. */
PackedConvWeights packConvWeights(const tensor::FilterBank &weights,
                                  int groups);

/** The bank `packed` was built from (packConvWeights inverted). */
tensor::FilterBank unpackConvWeights(const PackedConvWeights &packed);

/**
 * Zero-skipping direct convolution (inputs already validated by
 * nn::conv2d); equals convForwardScalar raw for raw on every input.
 * `arena` backs the per-layer non-zero lists and is reset by the
 * caller between layers.
 */
tensor::NeuronTensor convForward(const tensor::NeuronTensor &in,
                                 const PackedConvWeights &weights,
                                 const std::vector<tensor::Fixed16> &bias,
                                 const ConvParams &p, core::Arena &arena);

/** convForward over a bank packed on the fly (tests). */
tensor::NeuronTensor convForward(const tensor::NeuronTensor &in,
                                 const tensor::FilterBank &weights,
                                 const std::vector<tensor::Fixed16> &bias,
                                 const ConvParams &p, core::Arena &arena);

/** Scalar reference convolution (equivalence tests and benches). */
tensor::NeuronTensor convForwardScalar(
    const tensor::NeuronTensor &in, const tensor::FilterBank &weights,
    const std::vector<tensor::Fixed16> &bias, const ConvParams &p);

/** Vectorized fully-connected forward (inputs already validated). */
tensor::NeuronTensor fcForward(const tensor::NeuronTensor &in,
                               const tensor::FilterBank &weights,
                               const std::vector<tensor::Fixed16> &bias,
                               const FcParams &p);

/** Scalar reference FC forward (equivalence tests and benches). */
tensor::NeuronTensor fcForwardScalar(
    const tensor::NeuronTensor &in, const tensor::FilterBank &weights,
    const std::vector<tensor::Fixed16> &bias, const FcParams &p);

} // namespace cnv::nn::kernels

#endif // CNV_NN_KERNELS_H
