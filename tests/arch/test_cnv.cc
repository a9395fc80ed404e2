/**
 * @file
 * Unit tests for the CNV model: zero skipping, window
 * synchronisation stalls, empty-brick handling, lane assignment
 * policies, and end-to-end equivalence with the baseline node.
 */

#include <gtest/gtest.h>

#include "dadiannao/assignment.h"
#include "nn/zoo/zoo.h"
#include "ref/baseline_node.h"
#include "ref/cnv_node.h"
#include "ref/cnv_unit.h"
#include "sim/rng.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using dadiannao::LaneAssignment;
using dadiannao::NodeConfig;
using tensor::Fixed16;
using tensor::NeuronTensor;

NeuronTensor
constantInput(int x, int y, int z, std::int16_t raw)
{
    NeuronTensor in(x, y, z);
    for (Fixed16 &v : in)
        v = Fixed16::fromRaw(raw);
    return in;
}

TEST(LaneAssignment, ZOnlyIsBrickIndexModLanes)
{
    EXPECT_EQ(dadiannao::laneOf(LaneAssignment::ZOnly, 3, 9, 0, 7, 16), 0);
    EXPECT_EQ(dadiannao::laneOf(LaneAssignment::ZOnly, 3, 9, 17, 7, 16), 1);
    EXPECT_EQ(dadiannao::laneOf(LaneAssignment::ZOnly, 0, 0, 15, 7, 16), 15);
}

TEST(LaneAssignment, XYZHashMatchesZOnlyOnAlignedDepth)
{
    // For bricks at (x, y) where x + y is a multiple of the lane
    // count, the two policies coincide.
    EXPECT_EQ(dadiannao::laneOf(LaneAssignment::XYZHash, 0, 0, 5, 0, 16),
              dadiannao::laneOf(LaneAssignment::ZOnly, 0, 0, 5, 0, 16));
    EXPECT_EQ(dadiannao::laneOf(LaneAssignment::XYZHash, 16, 16, 5, 0, 16),
              dadiannao::laneOf(LaneAssignment::ZOnly, 0, 0, 5, 0, 16));
    // Otherwise it staggers by the spatial position.
    EXPECT_EQ(dadiannao::laneOf(LaneAssignment::XYZHash, 1, 0, 5, 0, 16), 6);
}

TEST(LaneAssignment, WindowEvenRoundRobinsTheWindowSequence)
{
    for (int seq = 0; seq < 40; ++seq) {
        EXPECT_EQ(dadiannao::laneOf(LaneAssignment::WindowEven, 9, 9, 3,
                                    seq, 16),
                  seq % 16);
    }
}

TEST(CnvConv, SkipsZerosPerfectlyBalancedLayer)
{
    // 1x1 window, 256-deep input, exactly 8 non-zeros in each brick:
    // every lane drains 8 entries -> 8 cycles per window instead of
    // the baseline's 16.
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 1;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(2, 2, 256);
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 2; ++x)
            for (int z = 0; z < 256; ++z)
                in.at(x, y, z) = (z % 16) < 8 ? Fixed16::fromRaw(3)
                                              : Fixed16{};

    const auto enc = zfnaf::encode(in, cfg.brickSize);
    tensor::FilterBank w(16, 1, 1, 256);
    std::vector<Fixed16> bias(16);
    const auto r = ref::simulateConvCnv(cfg, p, enc, w, bias);

    EXPECT_EQ(r.timing.cycles, 4u * 8u); // 4 windows x 8 cycles
    EXPECT_EQ(r.timing.activity.stall, 0u);
}

TEST(CnvConv, ImbalanceCausesSynchronisationStalls)
{
    // One brick holds 16 non-zeros, the other 15 bricks are empty:
    // the window takes 16 cycles and 15 lanes stall for all 16
    // (minus their single empty-brick cycle).
    NodeConfig cfg;
    cfg.laneAssignment = LaneAssignment::ZOnly;
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 1;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(1, 1, 256);
    for (int z = 0; z < 16; ++z)
        in.at(0, 0, z) = Fixed16::fromRaw(2);

    const auto enc = zfnaf::encode(in, cfg.brickSize);
    tensor::FilterBank w(16, 1, 1, 256);
    std::vector<Fixed16> bias(16);
    const auto r = ref::simulateConvCnv(cfg, p, enc, w, bias);

    EXPECT_EQ(r.timing.cycles, 16u);
    EXPECT_EQ(r.timing.activity.nonZero, 16u * cfg.units);
    // Total events = cycles * lanes * units; all the rest stall.
    EXPECT_EQ(r.timing.activity.stall,
              (16u * 16u - 16u) * cfg.units);
}

TEST(CnvConv, EmptyBrickCostsOneCycleUnlessDisabled)
{
    // All-zero input: with the bank-limited model, every lane burns
    // one cycle per empty brick; with the idealised model the layer
    // completes in zero cycles.
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 1;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(1, 1, 256);
    tensor::FilterBank w(16, 1, 1, 256);
    std::vector<Fixed16> bias(16);
    const auto enc = zfnaf::encode(in, 16);

    NodeConfig banked;
    banked.laneAssignment = LaneAssignment::ZOnly;
    const auto r1 = ref::simulateConvCnv(banked, p, enc, w, bias);
    EXPECT_EQ(r1.timing.cycles, 1u); // 16 empty bricks over 16 lanes

    NodeConfig ideal = banked;
    ideal.emptyBrickCostsCycle = false;
    const auto r2 = ref::simulateConvCnv(ideal, p, enc, w, bias);
    EXPECT_EQ(r2.timing.cycles, 0u);
}

TEST(CnvConv, XYZHashKeepsLanesBusyOnShallowLayers)
{
    // Depth 32 = 2 bricks per column. With Z-only slicing only two
    // lanes ever work; the XYZ hash spreads bricks of neighbouring
    // columns across lanes and finishes faster.
    sim::Rng rng(5);
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(8, 8, 32);
    for (Fixed16 &v : in)
        v = rng.bernoulli(0.4) ? Fixed16{} : Fixed16::fromRaw(7);
    const auto enc = zfnaf::encode(in, 16);
    tensor::FilterBank w(16, 3, 3, 32);
    std::vector<Fixed16> bias(16);

    NodeConfig zOnly;
    zOnly.laneAssignment = LaneAssignment::ZOnly;
    NodeConfig hashed;
    hashed.laneAssignment = LaneAssignment::XYZHash;

    const auto rz = ref::simulateConvCnv(zOnly, p, enc, w, bias);
    const auto rh = ref::simulateConvCnv(hashed, p, enc, w, bias);
    EXPECT_LT(rh.timing.cycles, rz.timing.cycles);
    EXPECT_EQ(rh.output, rz.output);
}

TEST(CnvNode, MatchesBaselineNodeOutputsExactly)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Nin, 11, 16);
    net->calibrate();

    sim::Rng rng(33);
    NeuronTensor input(net->node(0).outShape);
    for (Fixed16 &v : input)
        v = Fixed16::fromDouble(std::abs(rng.normal(0.5, 0.25)));

    const NodeConfig cfg;
    ref::BaselineNodeModel base{cfg};
    ref::CnvNodeModel cnvNode{cfg};

    const auto baseRun = base.run(*net, input);
    const auto cnvRun = cnvNode.run(*net, input);

    EXPECT_EQ(baseRun.final, cnvRun.final);
    EXPECT_EQ(baseRun.top1, cnvRun.top1);
    // Note: no speedup assertion here — at scale 16 every layer is
    // only one brick deep, a regime where serialising neurons within
    // a lane genuinely costs CNV cycles. Speed is asserted on
    // realistic depths in CnvNode.SpeedsUpDeepSparseNetwork.
}

TEST(CnvNode, SpeedsUpDeepSparseNetwork)
{
    // Hand-built network with realistic depths relative to the
    // 16-lane node: conv layers see >= 4 bricks per column.
    nn::Network net("deep", 77);
    int x = net.addInput({10, 10, 64});
    nn::ConvParams c1;
    c1.filters = 64;
    c1.fx = c1.fy = 3;
    c1.stride = 1;
    c1.pad = 1;
    c1.inputZeroFraction = 0.0;
    x = net.addConv("conv1", x, c1);
    nn::ConvParams c2 = c1;
    c2.inputZeroFraction = 0.5;
    x = net.addConv("conv2", x, c2);
    nn::ConvParams c3 = c2;
    x = net.addConv("conv3", x, c3);
    net.addFc("fc", x, nn::FcParams{32, false});
    net.deriveOutputTargets();
    net.calibrate();

    sim::Rng rng(91);
    NeuronTensor input(net.node(0).outShape);
    for (Fixed16 &v : input)
        v = Fixed16::fromDouble(std::abs(rng.normal(0.5, 0.25)));

    const NodeConfig cfg;
    ref::BaselineNodeModel base{cfg};
    ref::CnvNodeModel cnvNode{cfg};
    const auto baseRun = base.run(net, input);
    const auto cnvRun = cnvNode.run(net, input);
    EXPECT_EQ(baseRun.final, cnvRun.final);
    EXPECT_LT(cnvRun.timing.totalCycles(), baseRun.timing.totalCycles());
}

TEST(CnvNode, PruningZeroesSmallValuesAndSpeedsUp)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 13, 16);
    net->calibrate();

    sim::Rng rng(55);
    NeuronTensor input(net->node(0).outShape);
    for (Fixed16 &v : input)
        v = Fixed16::fromDouble(std::abs(rng.normal(0.5, 0.25)));

    const NodeConfig cfg;
    ref::CnvNodeModel cnvNode{cfg};

    const auto plain = cnvNode.run(*net, input);

    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 24);
    const auto pruned = cnvNode.run(*net, input, &prune);

    EXPECT_LE(pruned.timing.totalCycles(), plain.timing.totalCycles());
}

TEST(CnvConv, ConstantDenseInputProducesBaselineWork)
{
    // Fully dense input, aligned depth: CNV performs the same
    // non-zero work as the baseline's total work.
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 2;
    p.stride = 1;
    p.pad = 0;

    const NeuronTensor in = constantInput(4, 4, 64, 10);
    const auto enc = zfnaf::encode(in, cfg.brickSize);
    tensor::FilterBank w(16, 2, 2, 64);
    std::vector<Fixed16> bias(16);
    const auto r = ref::simulateConvCnv(cfg, p, enc, w, bias);
    EXPECT_EQ(r.timing.activity.stall, 0u);
    EXPECT_EQ(r.timing.activity.nonZero, r.timing.activity.total());
}

} // namespace
