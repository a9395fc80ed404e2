/**
 * @file
 * Cycle-level model of a CNV node executing one convolutional layer
 * on a ZFNAf-encoded input (Section IV-B).
 *
 * The front-end of each unit is 16 independent subunits; subunit i
 * holds neuron lane i and one 16-synapse lane per filter. Every
 * cycle a busy subunit pops one (value, offset) pair from its NBin,
 * uses the offset to index its SB slice, and produces 16 products —
 * one per filter — which the unchanged back-end adder trees reduce
 * into NBout. Lanes drain their window slices at their own pace and
 * synchronise at window boundaries (Section IV-B5); a brick whose
 * neurons are all zero occupies its lane for one (NM-bank-limited)
 * cycle unless configured otherwise.
 *
 * The model is functional and timing-accurate: outputs must match
 * the baseline and golden models bit-exactly, while activity
 * distinguishes non-zero work from window-synchronisation stalls.
 */

#ifndef CNV_REF_CNV_UNIT_H
#define CNV_REF_CNV_UNIT_H

#include <vector>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "nn/layer.h"
#include "tensor/neuron_tensor.h"
#include "zfnaf/format.h"

namespace cnv::ref {

/** Outcome of simulating one conv layer on the CNV node. */
struct CnvConvResult
{
    dadiannao::LayerResult timing;
    tensor::NeuronTensor output;
};

/**
 * Simulate one convolutional layer in encoded (zero-skipping) mode.
 *
 * @param cfg Node configuration (brick size must equal lane count).
 * @param p Layer parameters.
 * @param in Encoded input array (already pruned by the producer's
 *        encoder if dynamic pruning is enabled).
 * @param weights N filters (conventional layout; the transposed SB
 *        store order of Section IV-B2 is an arrangement detail that
 *        does not change which synapse each offset selects).
 * @param bias Per-filter bias.
 */
CnvConvResult simulateConvCnv(const dadiannao::NodeConfig &cfg,
                              const nn::ConvParams &p,
                              const zfnaf::EncodedArray &in,
                              const tensor::FilterBank &weights,
                              const std::vector<tensor::Fixed16> &bias);

} // namespace cnv::ref

#endif // CNV_REF_CNV_UNIT_H
