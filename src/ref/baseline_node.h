/**
 * @file
 * Whole-network execution on the DaDianNao baseline node: the
 * functional path that computes every layer's actual output (for
 * validation against the golden model and the CNV node) while
 * accounting cycles, activity, and energy events per layer.
 */

#ifndef CNV_REF_BASELINE_NODE_H
#define CNV_REF_BASELINE_NODE_H

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "nn/network.h"

namespace cnv::ref {

/** Full result of running a network on the baseline node. */
struct NodeRunResult
{
    dadiannao::NetworkResult timing;
    tensor::NeuronTensor final;
    int top1 = -1;
};

/** Executes networks functionally on the baseline node model. */
class BaselineNodeModel
{
  public:
    explicit BaselineNodeModel(const dadiannao::NodeConfig &cfg) : cfg_(cfg) {}

    const dadiannao::NodeConfig &config() const { return cfg_; }

    /**
     * Run the network on one input image. Weights come from the
     * network (materialised on demand); calibrate the network first
     * for sparsity-realistic behaviour.
     */
    NodeRunResult run(const nn::Network &net,
                      const tensor::NeuronTensor &input) const;

  private:
    dadiannao::NodeConfig cfg_;
};

} // namespace cnv::ref

#endif // CNV_REF_BASELINE_NODE_H
