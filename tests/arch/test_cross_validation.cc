/**
 * @file
 * The repository's central correctness argument:
 *
 *  1. Functional equivalence — the cycle-level baseline and CNV
 *     models produce bit-identical outputs to the golden conv2d on
 *     randomized layers (the paper's Caffe validation step).
 *  2. Model equivalence — the closed-form timing models agree
 *     exactly (cycles, every activity category, every energy
 *     counter) with the cycle-level models, so fast experiments are
 *     as trustworthy as slow ones.
 *  3. Work invariants — CNV performs exactly the non-zero work of
 *     the baseline, never more.
 */

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "ref/baseline_nfu.h"
#include "ref/cnv_unit.h"
#include "sim/rng.h"
#include "timing/conv_model.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using dadiannao::LayerResult;
using dadiannao::NodeConfig;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;

struct LayerCase
{
    int ix, iy, iz;
    int filters, k, stride, pad, groups;
    double sparsity;
    dadiannao::LaneAssignment assignment;
};

std::ostream &
operator<<(std::ostream &os, const LayerCase &c)
{
    return os << c.ix << 'x' << c.iy << 'x' << c.iz << " f" << c.filters
              << " k" << c.k << " s" << c.stride << " p" << c.pad << " g"
              << c.groups << " zf" << c.sparsity << " a"
              << (c.assignment == dadiannao::LaneAssignment::ZOnly ? "Z"
                                                                   : "XYZ");
}

NeuronTensor
randomInput(const LayerCase &c, sim::Rng &rng)
{
    NeuronTensor in(c.ix, c.iy, c.iz);
    for (Fixed16 &v : in) {
        if (rng.bernoulli(c.sparsity))
            v = Fixed16{};
        else
            v = Fixed16::fromRaw(
                static_cast<std::int16_t>(rng.uniformInt(1, 300)));
    }
    return in;
}

FilterBank
randomWeights(const nn::ConvParams &p, int depth, sim::Rng &rng)
{
    FilterBank w(p.filters, p.fx, p.fy, depth / p.groups);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(-40, 40)));
    return w;
}

class ConvCrossValidation : public ::testing::TestWithParam<LayerCase>
{
};

TEST_P(ConvCrossValidation, AllModelsAgree)
{
    const LayerCase c = GetParam();
    sim::Rng rng(0xf00d + c.ix * 131 + c.iz * 7 + c.filters);

    nn::ConvParams p;
    p.filters = c.filters;
    p.fx = p.fy = c.k;
    p.stride = c.stride;
    p.pad = c.pad;
    p.groups = c.groups;
    p.relu = true;

    NodeConfig cfg;
    cfg.laneAssignment = c.assignment;

    const NeuronTensor in = randomInput(c, rng);
    const FilterBank w = randomWeights(p, c.iz, rng);
    std::vector<Fixed16> bias(p.filters);
    for (Fixed16 &b : bias)
        b = Fixed16::fromRaw(static_cast<std::int16_t>(
            rng.uniformInt(-64, 64)));

    // Golden model.
    const NeuronTensor golden = nn::conv2d(in, w, bias, p);

    // Cycle-level baseline: functional + timing.
    const auto base = ref::simulateConvBaseline(
        cfg, p, in, w, bias, false);
    EXPECT_EQ(base.output, golden) << c;

    // Cycle-level CNV on the encoded input: bit-identical output.
    const zfnaf::EncodedArray enc = zfnaf::encode(in, cfg.brickSize);
    const auto cnvRes = ref::simulateConvCnv(cfg, p, enc, w, bias);
    EXPECT_EQ(cnvRes.output, golden) << c;

    // Closed-form models agree exactly with the cycle-level models.
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const LayerResult aBase =
        timing::convBaseline(cfg, p, in.shape(), counts, false);
    const LayerResult aCnv = timing::convCnv(cfg, p, in.shape(), counts);

    auto expectEqual = [&](const LayerResult &analytic,
                           const LayerResult &detailed) {
        EXPECT_EQ(analytic.cycles, detailed.cycles) << c;
        EXPECT_EQ(analytic.activity.zero, detailed.activity.zero) << c;
        EXPECT_EQ(analytic.activity.nonZero, detailed.activity.nonZero) << c;
        EXPECT_EQ(analytic.activity.stall, detailed.activity.stall) << c;
        EXPECT_EQ(analytic.activity.conv1, detailed.activity.conv1) << c;
        EXPECT_EQ(analytic.activity.other, detailed.activity.other) << c;
        EXPECT_EQ(analytic.energy.sbReads, detailed.energy.sbReads) << c;
        EXPECT_EQ(analytic.energy.nmReads, detailed.energy.nmReads) << c;
        EXPECT_EQ(analytic.energy.nmWrites, detailed.energy.nmWrites) << c;
        EXPECT_EQ(analytic.energy.nbinReads, detailed.energy.nbinReads) << c;
        EXPECT_EQ(analytic.energy.nbinWrites, detailed.energy.nbinWrites)
            << c;
        EXPECT_EQ(analytic.energy.multOps, detailed.energy.multOps) << c;
        EXPECT_EQ(analytic.energy.addOps, detailed.energy.addOps) << c;
        EXPECT_EQ(analytic.energy.encoderOps, detailed.energy.encoderOps)
            << c;
    };
    expectEqual(aBase, base.timing);
    expectEqual(aCnv, cnvRes.timing);

    // Work invariants: CNV does exactly the baseline's useful work.
    EXPECT_EQ(cnvRes.timing.activity.nonZero, base.timing.activity.nonZero)
        << c;
    // Every lane-cycle is accounted to exactly one category.
    EXPECT_EQ(base.timing.activity.total(),
              base.timing.cycles * static_cast<std::uint64_t>(
                                       cfg.lanes * cfg.units)) << c;
    EXPECT_EQ(cnvRes.timing.activity.total(),
              cnvRes.timing.cycles * static_cast<std::uint64_t>(
                                         cfg.lanes * cfg.units)) << c;
}

INSTANTIATE_TEST_SUITE_P(
    RandomLayers, ConvCrossValidation,
    ::testing::Values(
        // ix iy iz  N  k s p g  zf   assignment
        LayerCase{8, 8, 32, 16, 3, 1, 1, 1, 0.5,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{8, 8, 32, 16, 3, 1, 1, 1, 0.5,
                  dadiannao::LaneAssignment::ZOnly},
        LayerCase{7, 9, 48, 24, 3, 2, 0, 1, 0.4,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{6, 6, 64, 32, 5, 1, 2, 2, 0.45,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{6, 6, 64, 32, 5, 1, 2, 2, 0.45,
                  dadiannao::LaneAssignment::ZOnly},
        LayerCase{10, 10, 20, 8, 1, 1, 0, 1, 0.6,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{5, 5, 256, 300, 3, 1, 1, 1, 0.44,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{5, 5, 256, 300, 3, 1, 1, 1, 0.44,
                  dadiannao::LaneAssignment::ZOnly},
        LayerCase{9, 9, 16, 16, 2, 2, 0, 1, 0.0,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{9, 9, 16, 16, 2, 2, 0, 1, 0.95,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{4, 4, 15, 10, 2, 1, 0, 1, 0.5,
                  dadiannao::LaneAssignment::XYZHash},  // ragged depth
        LayerCase{12, 4, 96, 64, 3, 1, 1, 2, 0.5,
                  dadiannao::LaneAssignment::XYZHash},
        LayerCase{8, 8, 48, 20, 4, 3, 2, 1, 0.3,
                  dadiannao::LaneAssignment::ZOnly},
        // Shallow (image-like) inputs exercise packed-row fetch
        // blocks in the baseline (alex/google first layers).
        LayerCase{14, 14, 3, 20, 5, 2, 0, 1, 0.05,
                  dadiannao::LaneAssignment::WindowEven},
        LayerCase{14, 14, 3, 20, 7, 2, 3, 1, 0.05,
                  dadiannao::LaneAssignment::WindowEven},
        LayerCase{13, 13, 8, 24, 3, 4, 0, 1, 0.4,
                  dadiannao::LaneAssignment::WindowEven}));

TEST(ConvEquivalence, DenseAlignedLayerMatchesBaselineCycles)
{
    // With no zeros, depth a multiple of 16 lanes * 16 brick, no
    // padding, and Z-only assignment, CNV degenerates to exactly the
    // baseline's schedule.
    sim::Rng rng(7);
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 0;

    NodeConfig cfg;
    cfg.laneAssignment = dadiannao::LaneAssignment::ZOnly;

    NeuronTensor in(6, 6, 256);
    for (Fixed16 &v : in)
        v = Fixed16::fromRaw(static_cast<std::int16_t>(
            rng.uniformInt(1, 200)));

    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const auto base = timing::convBaseline(cfg, p, in.shape(), counts,
                                           false);
    const auto cnvRes = timing::convCnv(cfg, p, in.shape(), counts);
    EXPECT_EQ(base.cycles, cnvRes.cycles);
    EXPECT_EQ(cnvRes.activity.stall, 0u);
}

TEST(ConvEquivalence, HalfSparseLayerIsFasterOnCnv)
{
    sim::Rng rng(11);
    nn::ConvParams p;
    p.filters = 32;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 1;

    NodeConfig cfg;
    NeuronTensor in(10, 10, 128);
    for (Fixed16 &v : in)
        v = rng.bernoulli(0.5)
            ? Fixed16{}
            : Fixed16::fromRaw(static_cast<std::int16_t>(
                  rng.uniformInt(1, 200)));

    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const auto base = timing::convBaseline(cfg, p, in.shape(), counts,
                                           false);
    const auto cnvRes = timing::convCnv(cfg, p, in.shape(), counts);
    EXPECT_LT(cnvRes.cycles, base.cycles);
    // Upper bound: cannot beat the zero fraction.
    EXPECT_GT(cnvRes.cycles * 2, base.cycles / 2);
}

} // namespace
