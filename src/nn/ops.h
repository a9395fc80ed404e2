/**
 * @file
 * Functional (golden-model) layer kernels over 16-bit fixed-point
 * tensors. These produce the reference outputs against which both
 * accelerator models are validated, standing in for the Caffe
 * integration the paper used for on-the-fly output validation.
 */

#ifndef CNV_NN_OPS_H
#define CNV_NN_OPS_H

#include <vector>

#include "core/arena.h"
#include "nn/kernels.h"
#include "nn/layer.h"
#include "tensor/neuron_tensor.h"

namespace cnv::nn {

/**
 * Direct convolution per Section III-A's equation, with zero
 * padding, stride, grouped channels, per-filter bias, and optional
 * fused ReLU. Products accumulate exactly in a wide accumulator and
 * are requantised once per output neuron, like the hardware.
 */
tensor::NeuronTensor conv2d(const tensor::NeuronTensor &in,
                            const tensor::FilterBank &weights,
                            const std::vector<tensor::Fixed16> &bias,
                            const ConvParams &p);

/**
 * Arena-backed variant: the kernel's per-layer scratch (the input's
 * non-zero lists) comes from `arena`, letting callers that run many
 * layers reuse one allocation via `Arena::reset()` instead of
 * hitting the heap per layer.
 */
tensor::NeuronTensor conv2d(const tensor::NeuronTensor &in,
                            const tensor::FilterBank &weights,
                            const std::vector<tensor::Fixed16> &bias,
                            const ConvParams &p, core::Arena &arena);

/**
 * Variant over weights already laid out by kernels::packConvWeights
 * (nn::Network packs each conv layer once, not per pass).
 */
tensor::NeuronTensor conv2d(const tensor::NeuronTensor &in,
                            const kernels::PackedConvWeights &weights,
                            const std::vector<tensor::Fixed16> &bias,
                            const ConvParams &p, core::Arena &arena);

/** Max or average pooling with Caffe-style ceil output sizing. */
tensor::NeuronTensor pool2d(const tensor::NeuronTensor &in,
                            const PoolParams &p);

/** Cross-channel local response normalisation (computed in double). */
tensor::NeuronTensor lrn(const tensor::NeuronTensor &in, const LrnParams &p);

/**
 * Fully-connected layer: the input is flattened depth-fastest and
 * multiplied by a (outputs x volume) weight matrix.
 */
tensor::NeuronTensor fullyConnected(const tensor::NeuronTensor &in,
                                    const tensor::FilterBank &weights,
                                    const std::vector<tensor::Fixed16> &bias,
                                    const FcParams &p);

/** Depth concatenation; inputs must share x/y dimensions. */
tensor::NeuronTensor concat(const std::vector<const tensor::NeuronTensor *> &ins);

/** Softmax over the depth dimension (computed in double). */
tensor::NeuronTensor softmax(const tensor::NeuronTensor &in);

/** Index of the maximum element (top-1 class) of a 1x1xC tensor. */
int argmax(const tensor::NeuronTensor &logits);

} // namespace cnv::nn

#endif // CNV_NN_OPS_H
