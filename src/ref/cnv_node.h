/**
 * @file
 * Whole-network execution on the CNV node: every conv layer after
 * the first runs in encoded (zero-skipping) mode on the ZFNAf its
 * producer's encoder wrote; the first conv layer processes the raw
 * image in conventional mode (Section IV-B4); non-conv layers match
 * the baseline. Optionally applies the dynamic-pruning thresholds
 * of Section V-E at each conv output's encoding step.
 *
 * With pruning disabled, outputs are bit-identical to the baseline
 * node and the golden model — the paper's Caffe-validation step.
 */

#ifndef CNV_REF_CNV_NODE_H
#define CNV_REF_CNV_NODE_H

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "nn/network.h"
#include "ref/baseline_node.h"

namespace cnv::ref {

/** Executes networks functionally on the CNV node model. */
class CnvNodeModel
{
  public:
    explicit CnvNodeModel(const dadiannao::NodeConfig &cfg) : cfg_(cfg) {}

    const dadiannao::NodeConfig &config() const { return cfg_; }

    /**
     * Run the network on one input image.
     *
     * @param prune Optional per-conv-layer thresholds applied by the
     *        encoder when each conv output is written to NM.
     */
    NodeRunResult run(const nn::Network &net,
                                 const tensor::NeuronTensor &input,
                                 const nn::PruneConfig *prune = nullptr) const;

  private:
    dadiannao::NodeConfig cfg_;
};

} // namespace cnv::ref

#endif // CNV_REF_CNV_NODE_H
