/**
 * @file
 * Network-level randomized property test: random small DAGs
 * (conv/pool/LRN/concat/FC stacks) run through the software forward
 * pass, the baseline node, and the CNV node must produce identical
 * tensors, and CNV's conv activity must contain no zero-category
 * events. This closes the loop above the per-layer cross-validation
 * suite.
 */

#include <gtest/gtest.h>

#include "nn/network.h"
#include "nn/trace.h"
#include "ref/baseline_node.h"
#include "ref/cnv_node.h"
#include "sim/rng.h"

namespace {

using namespace cnv;
using tensor::Fixed16;
using tensor::NeuronTensor;

/** Build a random 3-5 layer network with realistic depths. */
std::unique_ptr<nn::Network>
randomNetwork(std::uint64_t seed)
{
    sim::Rng rng(seed * 7919 + 1);
    auto net = std::make_unique<nn::Network>(
        sim::strfmt("rand{}", seed), seed);

    const int spatial =
        10 + static_cast<int>(rng.uniformInt(std::uint64_t{6}));
    int x = net->addInput({spatial, spatial, 16});

    const int convLayers =
        2 + static_cast<int>(rng.uniformInt(std::uint64_t{3}));
    for (int i = 0; i < convLayers; ++i) {
        nn::ConvParams p;
        p.filters = 16 * (1 + static_cast<int>(
                                  rng.uniformInt(std::uint64_t{4})));
        p.fx = p.fy =
            1 + 2 * static_cast<int>(rng.uniformInt(std::uint64_t{2}));
        p.stride = 1;
        p.pad = p.fx / 2;
        p.inputZeroFraction = rng.uniform(0.3, 0.6);
        const int branch = x;
        x = net->addConv(sim::strfmt("c{}", i), branch, p);

        if (rng.bernoulli(0.3)) {
            // Occasional inception-style two-way branch.
            nn::ConvParams q = p;
            q.fx = q.fy = 1;
            q.pad = 0;
            q.filters = 16;
            const int side =
                net->addConv(sim::strfmt("s{}", i), branch, q);
            x = net->addConcat(sim::strfmt("cat{}", i), {x, side});
        }
        if (rng.bernoulli(0.4) && net->node(x).outShape.x >= 4) {
            nn::PoolParams pool;
            pool.k = 2;
            pool.stride = 2;
            x = net->addPool(sim::strfmt("p{}", i), x, pool);
        }
        if (rng.bernoulli(0.25))
            x = net->addLrn(sim::strfmt("n{}", i), x, nn::LrnParams{});
    }
    x = net->addFc("fc", x, nn::FcParams{24, false});
    net->addSoftmax("prob", x);
    net->deriveOutputTargets();
    return net;
}

class NodeEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(NodeEquivalence, SoftwareBaselineAndCnvAgree)
{
    auto net = randomNetwork(GetParam());
    net->calibrate();

    const auto image =
        nn::synthesizeImage(net->node(0).outShape, GetParam() + 5);

    const dadiannao::NodeConfig cfg;
    ref::BaselineNodeModel baseline{cfg};
    ref::CnvNodeModel cnvNode{cfg};

    const auto sw = net->forward(image);
    const auto base = baseline.run(*net, image);
    const auto cnvRun = cnvNode.run(*net, image);

    ASSERT_EQ(base.final, sw.final);
    ASSERT_EQ(cnvRun.final, sw.final);
    EXPECT_EQ(base.top1, cnvRun.top1);

    // CNV never processes a zero neuron in encoded conv layers.
    EXPECT_EQ(cnvRun.timing.totalActivity().zero, 0u);
    // The baseline never stalls.
    EXPECT_EQ(base.timing.totalActivity().stall, 0u);
    // Both ran the same number of layer entries.
    EXPECT_EQ(base.timing.layers.size(), cnvRun.timing.layers.size());
}

TEST_P(NodeEquivalence, PrunedRunsStayConsistentAcrossNodes)
{
    auto net = randomNetwork(GetParam() ^ 0x5a5a);
    net->calibrate();
    const auto image =
        nn::synthesizeImage(net->node(0).outShape, GetParam() + 9);

    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 24);

    const dadiannao::NodeConfig cfg;
    ref::CnvNodeModel cnvNode{cfg};
    const auto hw = cnvNode.run(*net, image, &prune);

    nn::ForwardOptions opts;
    opts.prune = &prune;
    const auto sw = net->forward(image, opts);
    EXPECT_EQ(hw.final, sw.final);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeEquivalence,
                         ::testing::Range<std::uint64_t>(1, 11));

} // namespace
