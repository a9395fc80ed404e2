/**
 * @file
 * Unit tests for the DaDianNao baseline model: configuration
 * invariants from Section IV-A, hand-computable cycle counts, and
 * activity accounting.
 */

#include <gtest/gtest.h>

#include "nn/zoo/zoo.h"
#include "ref/baseline_nfu.h"
#include "ref/baseline_node.h"
#include "sim/rng.h"

namespace {

using namespace cnv;
using dadiannao::NodeConfig;
using tensor::Fixed16;
using tensor::NeuronTensor;

TEST(BaselineConfig, PaperBandwidthAndCapacityInvariants)
{
    const NodeConfig cfg;
    // 16 units x 256 synapse lanes = 4K synapses per cycle; at 1GHz
    // and 16-bit synapses that is 8TB/s (Section IV-A).
    const double synapsesPerCycle =
        cfg.units * cfg.lanes * cfg.filtersPerUnit;
    EXPECT_EQ(synapsesPerCycle, 4096);
    const double tbPerSec =
        synapsesPerCycle * 2.0 * cfg.clockGhz * 1e9 / 1e12;
    EXPECT_DOUBLE_EQ(tbPerSec, 8.192);

    EXPECT_EQ(cfg.sbBytesPerUnit, 2u << 20);
    EXPECT_EQ(cfg.sbBytesPerUnit * cfg.units, 32u << 20);
    EXPECT_EQ(cfg.nmBytes, 4u << 20);
    EXPECT_EQ(cfg.parallelFilters(), 256);
    EXPECT_EQ(cfg.nodeLanes(), 256);
    // Each subunit's SB slice is 128KB (Section IV-B).
    EXPECT_EQ(cfg.sbBytesPerUnit / cfg.lanes, 128u << 10);
}

TEST(BaselineConv, HandComputedCycleCount)
{
    // 4x4x32 input, 16 filters of 3x3, unit stride, no padding:
    // 2x2 windows, 9 cells each, ceil(32/16)=2 fetch blocks per cell
    // -> 4 * 9 * 2 = 72 cycles, one pass.
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(4, 4, 32);
    for (Fixed16 &v : in)
        v = Fixed16::fromRaw(1);
    tensor::FilterBank w(16, 3, 3, 32);
    std::vector<Fixed16> bias(16);

    const auto r = ref::simulateConvBaseline(cfg, p, in, w, bias,
                                             false);
    EXPECT_EQ(r.timing.cycles, 72u);
    // All neurons non-zero: every lane event is non-zero work.
    EXPECT_EQ(r.timing.activity.zero, 0u);
    EXPECT_EQ(r.timing.activity.nonZero,
              72u * 16u * 16u); // cycles * lanes * units
}

TEST(BaselineConv, MultiplePassesForManyFilters)
{
    // 257 filters needs ceil(257/256) = 2 passes per window.
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 257;
    p.fx = p.fy = 1;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(2, 2, 16);
    for (Fixed16 &v : in)
        v = Fixed16::fromRaw(2);
    tensor::FilterBank w(257, 1, 1, 16);
    std::vector<Fixed16> bias(257);

    const auto r = ref::simulateConvBaseline(cfg, p, in, w, bias,
                                             false);
    EXPECT_EQ(r.timing.cycles, 2u * 2u * 2u); // windows * passes
}

TEST(BaselineConv, Conv1CategoryAbsorbsAllEvents)
{
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 2;
    p.stride = 1;
    p.pad = 0;

    sim::Rng rng(3);
    NeuronTensor in(5, 5, 16);
    for (Fixed16 &v : in)
        v = rng.bernoulli(0.5) ? Fixed16{} : Fixed16::fromRaw(9);
    tensor::FilterBank w(16, 2, 2, 16);
    std::vector<Fixed16> bias(16);

    const auto r =
        ref::simulateConvBaseline(cfg, p, in, w, bias, true);
    EXPECT_EQ(r.timing.activity.zero, 0u);
    EXPECT_EQ(r.timing.activity.nonZero, 0u);
    EXPECT_EQ(r.timing.activity.conv1, r.timing.activity.total());
}

TEST(BaselineConv, ZeroEventsMatchInputZeroCount)
{
    // 1x1 conv, unit stride: every input neuron is read exactly once
    // per pass, so zero events = zeros * units.
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 1;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(4, 4, 32);
    std::size_t zeros = 0;
    sim::Rng rng(17);
    for (Fixed16 &v : in) {
        if (rng.bernoulli(0.4)) {
            v = Fixed16{};
            ++zeros;
        } else {
            v = Fixed16::fromRaw(5);
        }
    }
    tensor::FilterBank w(16, 1, 1, 32);
    std::vector<Fixed16> bias(16);

    const auto r = ref::simulateConvBaseline(cfg, p, in, w, bias,
                                             false);
    EXPECT_EQ(r.timing.activity.zero,
              static_cast<std::uint64_t>(zeros) * cfg.units);
}

TEST(BaselineNode, RunsSmallNetworkEndToEnd)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 5, 16);
    net->calibrate();

    sim::Rng rng(21);
    NeuronTensor input(net->node(0).outShape);
    for (Fixed16 &v : input)
        v = Fixed16::fromDouble(std::abs(rng.normal(0.5, 0.25)));

    ref::BaselineNodeModel node{NodeConfig{}};
    const auto run = node.run(*net, input);

    EXPECT_GT(run.timing.totalCycles(), 0u);
    EXPECT_GE(run.top1, 0);
    // The functional result matches the pure software forward pass.
    const auto ref = net->forward(input);
    EXPECT_EQ(run.final, ref.final);
    EXPECT_EQ(run.top1, ref.top1);
}

} // namespace
