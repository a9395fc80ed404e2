/** @file Tests for the network graph and calibration. */

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/network.h"
#include "nn/ops.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/rng.h"
#include "tensor/neuron_tensor.h"

namespace {

using namespace cnv;
using tensor::Fixed16;
using tensor::NeuronTensor;

nn::ConvParams
conv(int filters, int k, double zf = 0.5)
{
    nn::ConvParams p;
    p.filters = filters;
    p.fx = p.fy = k;
    p.stride = 1;
    p.pad = k / 2;
    p.inputZeroFraction = zf;
    return p;
}

NeuronTensor
smoothInput(tensor::Shape3 shape, std::uint64_t seed)
{
    NeuronTensor t(shape);
    sim::Rng rng(seed);
    for (Fixed16 &v : t)
        v = Fixed16::fromDouble(std::abs(rng.normal(0.5, 0.25)));
    return t;
}

TEST(Network, ShapePropagation)
{
    nn::Network net("t", 1);
    int x = net.addInput({8, 8, 16});
    x = net.addConv("c1", x, conv(32, 3));
    EXPECT_EQ(net.node(x).outShape, (tensor::Shape3{8, 8, 32}));
    nn::PoolParams p;
    p.k = 2;
    p.stride = 2;
    x = net.addPool("p1", x, p);
    EXPECT_EQ(net.node(x).outShape, (tensor::Shape3{4, 4, 32}));
    x = net.addFc("fc", x, nn::FcParams{10, false});
    EXPECT_EQ(net.node(x).outShape, (tensor::Shape3{1, 1, 10}));
}

TEST(Network, ConvIndicesFollowAdditionOrder)
{
    nn::Network net("t", 1);
    int x = net.addInput({4, 4, 16});
    const int c1 = net.addConv("c1", x, conv(16, 1));
    const int c2 = net.addConv("c2", c1, conv(16, 1));
    EXPECT_EQ(net.node(c1).convIndex, 0);
    EXPECT_EQ(net.node(c2).convIndex, 1);
    EXPECT_EQ(net.convLayerCount(), 2);
}

TEST(Network, ForwardMatchesManualComposition)
{
    nn::Network net("t", 2);
    int x = net.addInput({6, 6, 16});
    const int c1 = net.addConv("c1", x, conv(16, 3));
    nn::PoolParams pool;
    pool.k = 2;
    pool.stride = 2;
    net.addPool("p1", c1, pool);

    const NeuronTensor input = smoothInput({6, 6, 16}, 3);
    const auto run = net.forward(input);

    const NeuronTensor conv1 = nn::conv2d(input, net.weightsOf(c1),
                                          net.biasOf(c1),
                                          net.node(c1).conv);
    EXPECT_EQ(run.final, nn::pool2d(conv1, pool));
}

TEST(Network, WeightsOfTracksThePackedWeightsThroughCalibration)
{
    // Conv weights are stored packed; weightsOf() unpacks them. A
    // bank handed out before calibrate() must see the rescale, and
    // one asked for after it must match too (grouped, with a filter
    // count off the 16-lane padding).
    for (bool askFirst : {true, false}) {
        nn::Network net("t", 12);
        const int x = net.addInput({7, 7, 8});
        nn::ConvParams p = conv(20, 3);
        p.groups = 2;
        const int c1 = net.addConv("c1", x, p);
        const tensor::FilterBank *early =
            askFirst ? &net.weightsOf(c1) : nullptr;
        net.deriveOutputTargets();
        net.calibrate();
        const tensor::FilterBank &w = net.weightsOf(c1);
        if (early) {
            EXPECT_EQ(early, &w);
        }

        const NeuronTensor input = smoothInput({7, 7, 8}, 13);
        EXPECT_EQ(net.forward(input).final,
                  nn::conv2d(input, w, net.biasOf(c1), net.node(c1).conv))
            << "weightsOf asked " << (askFirst ? "before" : "after")
            << " calibrate";
    }
}

TEST(Network, ForwardIsDeterministicPerSeed)
{
    nn::Network a("t", 5), b("t", 5), c("t", 6);
    for (nn::Network *n : {&a, &b, &c}) {
        int x = n->addInput({4, 4, 16});
        x = n->addConv("c1", x, conv(16, 3));
        n->addFc("fc", x, nn::FcParams{8, false});
    }
    const NeuronTensor input = smoothInput({4, 4, 16}, 9);
    EXPECT_EQ(a.forward(input).final, b.forward(input).final);
    // Different weight seed -> different output.
    EXPECT_FALSE(a.forward(input).final == c.forward(input).final);
}

TEST(Network, CalibrationHitsSparsityTargets)
{
    nn::Network net("t", 7);
    int x = net.addInput({24, 24, 16});
    x = net.addConv("c1", x, conv(64, 3, 0.0));
    x = net.addConv("c2", x, conv(64, 3, 0.5));
    net.addConv("c3", x, conv(64, 3, 0.5));
    net.deriveOutputTargets();
    net.calibrate();

    const NeuronTensor input = smoothInput({24, 24, 16}, 21);
    nn::ForwardOptions opts;
    opts.keepAll = true;
    const auto run = net.forward(input, opts);
    // c1's output feeds c2 (target 0.5); check the realised zero
    // fraction is in the neighbourhood.
    const double zf = tensor::zeroFraction(*run.outputs[1]);
    EXPECT_NEAR(zf, 0.5, 0.12);
}

TEST(Network, PruningZeroesSmallConvOutputs)
{
    nn::Network net("t", 8);
    int x = net.addInput({8, 8, 16});
    net.addConv("c1", x, conv(16, 3, 0.0));
    net.calibrate();

    nn::PruneConfig prune;
    prune.thresholds = {64}; // |v| < 0.25 pruned
    nn::ForwardOptions opts;
    opts.prune = &prune;
    opts.keepAll = true;

    const NeuronTensor input = smoothInput({8, 8, 16}, 22);
    const auto pruned = net.forward(input, opts);
    for (const Fixed16 v : *pruned.outputs[1])
        EXPECT_TRUE(v.isZero() || v.rawAbs() >= 64);
}

TEST(Network, ConcatGraphExecutes)
{
    nn::Network net("t", 9);
    int x = net.addInput({4, 4, 16});
    const int a = net.addConv("a", x, conv(16, 1));
    const int b = net.addConv("b", x, conv(32, 1));
    const int cat = net.addConcat("cat", {a, b});
    EXPECT_EQ(net.node(cat).outShape.z, 48);
    const auto run = net.forward(smoothInput({4, 4, 16}, 30));
    EXPECT_EQ(run.final.shape().z, 48);
}

TEST(Network, ResumedPassEqualsFullPassAtEveryCut)
{
    // google at 1/16: concat branches keep several tensors live at a
    // cut inside an inception module. Every cut must resume exactly.
    auto net = nn::zoo::build(nn::zoo::NetId::Google, 5, 16);
    net->calibrate();
    nn::PruneConfig cfg;
    for (int i = 0; i < net->convLayerCount(); ++i)
        cfg.thresholds.push_back(i % 3 == 0 ? 0 : 8 << (i % 4));
    nn::ForwardOptions opts;
    opts.prune = &cfg;

    const NeuronTensor image = nn::synthesizeImage(net->node(0).outShape, 3);
    const auto full = net->forward(image, opts);
    const nn::LiveSet input = net->start(image);
    nn::LiveSet chained = input;
    int widest = 0;
    for (int cut = 1; cut < net->nodeCount(); cut += 7) {
        const nn::LiveSet fresh = net->advance(input, cut, opts);
        widest = std::max(widest, static_cast<int>(fresh.tensors.size()));
        chained = net->advance(chained, cut, opts);
        const auto resumed = net->forward(fresh, opts);
        EXPECT_EQ(resumed.logits, full.logits) << "cut " << cut;
        EXPECT_EQ(resumed.top1, full.top1) << "cut " << cut;
        EXPECT_EQ(net->forward(chained, opts).logits, full.logits)
            << "chained cut " << cut;
    }
    EXPECT_GT(widest, 1); // some cut fell inside a module
}

TEST(Network, UnprunedPrefixResumesAsPruned)
{
    // A live set captured without pruning, just past the first conv
    // layer a config prunes, resumes as if that layer were pruned.
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 4, 16);
    net->calibrate();
    nn::PruneConfig cfg;
    cfg.thresholds = {0, 64, 16, 0, 128};
    nn::ForwardOptions opts;
    opts.prune = &cfg;
    const NeuronTensor image = nn::synthesizeImage(net->node(0).outShape, 8);
    const int cut = net->convNodeIds()[1] + 1;
    const nn::LiveSet prefix = net->advance(net->start(image), cut);
    EXPECT_EQ(net->forward(prefix, opts).logits,
              net->forward(image, opts).logits);
    EXPECT_EQ(net->forward(prefix).logits, net->forward(image).logits);
}

TEST(Network, WrongInputShapeIsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    nn::Network net("t", 10);
    net.addInput({4, 4, 8});
    EXPECT_THROW(net.forward(NeuronTensor(3, 3, 8)), sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

TEST(Network, MacsCounting)
{
    nn::Network net("t", 11);
    int x = net.addInput({8, 8, 16});
    const int c = net.addConv("c", x, conv(32, 3));
    // Same-padded: 8*8 windows * 3*3*16 per filter * 32 filters.
    EXPECT_EQ(net.node(c).macs(), 8u * 8 * 9 * 16 * 32);
    EXPECT_EQ(net.totalConvMacs(), net.node(c).macs());
}

TEST(Network, GroupedConvMacsHalve)
{
    nn::Network net("t", 12);
    int x = net.addInput({4, 4, 16});
    nn::ConvParams p = conv(32, 3);
    const std::size_t dense = p.macs({4, 4, 16});
    p.groups = 2;
    const std::size_t grouped = p.macs({4, 4, 16});
    EXPECT_EQ(grouped * 2, dense);
    (void)x;
}

} // namespace
