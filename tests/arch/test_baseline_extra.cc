/**
 * @file
 * Additional baseline-model coverage: grouped convolutions, packed
 * shallow rows, energy counter structure, and multi-pass filter
 * scheduling — each checked against hand-derived expectations.
 */

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "ref/baseline_nfu.h"
#include "sim/rng.h"
#include "timing/conv_model.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using dadiannao::NodeConfig;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;

TEST(BaselineGroups, GroupsProcessSequentially)
{
    // Two groups halve the depth each pass processes but double the
    // group iterations: same cycles as a dense layer of half depth
    // times two.
    NodeConfig cfg;
    nn::ConvParams grouped;
    grouped.filters = 32;
    grouped.fx = grouped.fy = 3;
    grouped.stride = 1;
    grouped.pad = 0;
    grouped.groups = 2;

    NeuronTensor in(6, 6, 64);
    in.fill(Fixed16::fromRaw(3));
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const auto r =
        timing::convBaseline(cfg, grouped, in.shape(), counts, false);

    // 4x4 windows x 9 cells x ceil(32/16) blocks x 2 groups.
    EXPECT_EQ(r.cycles, 4ull * 4 * 9 * 2 * 2);
}

TEST(BaselineGroups, GroupedFunctionalEquivalence)
{
    sim::Rng rng(5);
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 8;
    p.fx = p.fy = 3;
    p.stride = 2;
    p.pad = 1;
    p.groups = 2;

    NeuronTensor in(7, 7, 32);
    for (Fixed16 &v : in)
        v = rng.bernoulli(0.4) ? Fixed16{}
                               : Fixed16::fromRaw(static_cast<std::int16_t>(
                                     rng.uniformInt(1, 99)));
    FilterBank w(8, 3, 3, 16);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(-30, 30)));
    std::vector<Fixed16> bias(8);

    const auto r =
        ref::simulateConvBaseline(cfg, p, in, w, bias, false);
    EXPECT_EQ(r.output, nn::conv2d(in, w, bias, p));
}

TEST(BaselinePackedRows, BlockCountRespectsAlignment)
{
    // 3-deep input, 5-wide filter, stride 1: a window row spans 15
    // contiguous values. Depending on the window's start offset the
    // span touches 1 or 2 aligned 16-value blocks.
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 16;
    p.fx = 5;
    p.fy = 1;
    p.stride = 1;
    p.pad = 0;

    NeuronTensor in(12, 1, 3);
    in.fill(Fixed16::fromRaw(1));
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const auto r =
        timing::convBaseline(cfg, p, in.shape(), counts, false);

    // 8 windows, one row each; window at x0 spans [3*x0, 3*x0+15):
    // x0=0 -> 1 block; all others straddle a block boundary -> 2.
    EXPECT_EQ(r.cycles, 1ull + 7 * 2);
}

TEST(BaselinePackedRows, EventsStillCoverEveryLaneSlot)
{
    NodeConfig cfg;
    nn::ConvParams p;
    p.filters = 20;
    p.fx = p.fy = 7;
    p.stride = 2;
    p.pad = 3;

    sim::Rng rng(9);
    NeuronTensor in(20, 20, 3);
    for (Fixed16 &v : in)
        v = rng.bernoulli(0.02) ? Fixed16{} : Fixed16::fromRaw(44);
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const auto r =
        timing::convBaseline(cfg, p, in.shape(), counts, false);
    EXPECT_EQ(r.activity.total(), r.cycles * 16 * 16);
}

TEST(BaselineEnergy, CountersScaleWithActiveUnits)
{
    // 16 filters use one unit; 256 filters use 16: SB reads scale
    // accordingly while NM reads (broadcast) do not.
    NodeConfig cfg;
    NeuronTensor in(4, 4, 32);
    in.fill(Fixed16::fromRaw(2));
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);

    nn::ConvParams small;
    small.filters = 16;
    small.fx = small.fy = 1;
    small.stride = 1;
    nn::ConvParams big = small;
    big.filters = 256;

    const auto rs =
        timing::convBaseline(cfg, small, in.shape(), counts, false);
    const auto rb =
        timing::convBaseline(cfg, big, in.shape(), counts, false);
    EXPECT_EQ(rs.cycles, rb.cycles);
    EXPECT_EQ(rs.energy.nmReads, rb.energy.nmReads);
    EXPECT_EQ(rb.energy.sbReads, rs.energy.sbReads * 16);
    EXPECT_EQ(rb.energy.multOps, rs.energy.multOps * 16);
}

TEST(BaselineMultiPass, PassesScaleCyclesLinearly)
{
    NodeConfig cfg;
    NeuronTensor in(5, 5, 32);
    in.fill(Fixed16::fromRaw(2));
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);

    nn::ConvParams onePass;
    onePass.filters = 256;
    onePass.fx = onePass.fy = 2;
    onePass.stride = 1;
    nn::ConvParams threePass = onePass;
    threePass.filters = 256 * 3;

    const auto r1 =
        timing::convBaseline(cfg, onePass, in.shape(), counts, false);
    const auto r3 =
        timing::convBaseline(cfg, threePass, in.shape(), counts, false);
    EXPECT_EQ(r3.cycles, r1.cycles * 3);
    EXPECT_EQ(r3.activity.total(), r1.activity.total() * 3);
}

} // namespace
