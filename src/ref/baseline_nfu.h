/**
 * @file
 * Cycle-level model of a DaDianNao node executing one convolutional
 * layer (Sections III-B and IV-A).
 *
 * Every cycle, a 16-neuron fetch block is read from NM and broadcast
 * to all 16 units; each unit multiplies the 16 neurons with 256
 * synapses from its SB (16 filters x 16 synapse sublanes) and
 * reduces them through 16 adder trees into NBout. All lanes operate
 * in lock step — the model is both functional (it produces the
 * layer's output neurons, validated against the golden conv2d) and
 * timing-accurate (it counts cycles, per-lane activity events, and
 * the hardware events that feed the energy model).
 *
 * Windows are processed one at a time; layers with more filters
 * than the node's 256 parallel filters take multiple passes per
 * window. Grouped convolutions process each group's depth slice and
 * filter subset separately. Zero padding is skipped by address
 * generation (no events), matching both architecture models.
 */

#ifndef CNV_REF_BASELINE_NFU_H
#define CNV_REF_BASELINE_NFU_H

#include <vector>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "nn/layer.h"
#include "tensor/neuron_tensor.h"

namespace cnv::ref {

/** Outcome of simulating one conv layer. */
struct ConvSimResult
{
    dadiannao::LayerResult timing;
    tensor::NeuronTensor output;
};

/**
 * Simulate one convolutional layer on the baseline node.
 *
 * @param cfg Node configuration.
 * @param p Layer parameters (relu fused as in the networks).
 * @param in Input neuron array.
 * @param weights N filters.
 * @param bias Per-filter bias.
 * @param isConv1 Account activity as the "conv1" category.
 */
ConvSimResult simulateConvBaseline(const dadiannao::NodeConfig &cfg,
                                   const nn::ConvParams &p,
                                   const tensor::NeuronTensor &in,
                                   const tensor::FilterBank &weights,
                                   const std::vector<tensor::Fixed16> &bias,
                                   bool isConv1);

} // namespace cnv::ref

#endif // CNV_REF_BASELINE_NFU_H
