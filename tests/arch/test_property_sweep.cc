/**
 * @file
 * Randomized property sweep: layer geometry, sparsity, grouping,
 * lane assignment, NBout depth and brick handling are all drawn
 * from a seed, and for every drawn configuration the suite checks
 * the repository's two core invariants (functional equivalence and
 * analytic/cycle-level model equality) plus value-independent
 * structural properties of the timing results.
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

struct Drawn
{
    nn::ConvParams params;
    NodeConfig cfg;
    NeuronTensor input;
    FilterBank weights;
    std::vector<Fixed16> bias;
};

Drawn
draw(std::uint64_t seed)
{
    sim::Rng rng(seed * 2654435761ULL + 17);
    Drawn d;

    d.params.fx = 1 + static_cast<int>(rng.uniformInt(std::uint64_t{5}));
    d.params.fy = 1 + static_cast<int>(rng.uniformInt(std::uint64_t{5}));
    d.params.stride =
        1 + static_cast<int>(rng.uniformInt(std::uint64_t{3}));
    d.params.pad = static_cast<int>(rng.uniformInt(std::uint64_t{3}));
    const bool grouped = rng.bernoulli(0.25);
    d.params.groups = grouped ? 2 : 1;

    const int ix = d.params.fx +
                   static_cast<int>(rng.uniformInt(std::uint64_t{10}));
    const int iy = d.params.fy +
                   static_cast<int>(rng.uniformInt(std::uint64_t{10}));
    // Grouped layers need brick-aligned group slices.
    const int iz = grouped
        ? 32 * (1 + static_cast<int>(rng.uniformInt(std::uint64_t{3})))
        : 1 + static_cast<int>(rng.uniformInt(std::uint64_t{80}));
    d.params.filters =
        d.params.groups *
        (1 + static_cast<int>(rng.uniformInt(std::uint64_t{40})));

    switch (rng.uniformInt(std::uint64_t{3})) {
      case 0: d.cfg.laneAssignment = dadiannao::LaneAssignment::ZOnly;
              break;
      case 1: d.cfg.laneAssignment = dadiannao::LaneAssignment::XYZHash;
              break;
      default:
          d.cfg.laneAssignment = dadiannao::LaneAssignment::WindowEven;
    }
    d.cfg.nboutEntries =
        16 << rng.uniformInt(std::uint64_t{4}); // 1..8 windows
    d.cfg.emptyBrickCostsCycle = rng.bernoulli(0.8);

    const double sparsity = rng.uniform(0.0, 0.95);
    d.input = NeuronTensor(ix, iy, iz);
    for (Fixed16 &v : d.input) {
        v = rng.bernoulli(sparsity)
            ? Fixed16{}
            : Fixed16::fromRaw(static_cast<std::int16_t>(
                  rng.uniformInt(std::int64_t{1}, std::int64_t{400})));
    }

    d.weights = FilterBank(d.params.filters, d.params.fx, d.params.fy,
                           iz / d.params.groups);
    for (std::size_t i = 0; i < d.weights.size(); ++i)
        d.weights.data()[i] = Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(std::int64_t{-60},
                                                     std::int64_t{60})));
    d.bias.resize(d.params.filters);
    for (Fixed16 &b : d.bias)
        b = Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(std::int64_t{-50},
                                                     std::int64_t{50})));
    return d;
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PropertySweep, ModelsAgreeOnRandomConfigurations)
{
    const Drawn d = draw(GetParam());

    // Golden output.
    const NeuronTensor golden =
        nn::conv2d(d.input, d.weights, d.bias, d.params);

    // Cycle-level models are functionally exact.
    const auto base = ref::simulateConvBaseline(
        d.cfg, d.params, d.input, d.weights, d.bias, false);
    ASSERT_EQ(base.output, golden);

    const auto enc = zfnaf::encode(d.input, d.cfg.brickSize);
    enc.checkInvariants();
    const auto cnvRes =
        ref::simulateConvCnv(d.cfg, d.params, enc, d.weights, d.bias);
    ASSERT_EQ(cnvRes.output, golden);

    // Closed-form == cycle-level, on every counter.
    const auto counts = zfnaf::nonZeroCountMap(d.input, d.cfg.brickSize);
    const LayerResult aBase = timing::convBaseline(
        d.cfg, d.params, d.input.shape(), counts, false);
    const LayerResult aCnv =
        timing::convCnv(d.cfg, d.params, d.input.shape(), counts);

    EXPECT_EQ(aBase.cycles, base.timing.cycles);
    EXPECT_EQ(aCnv.cycles, cnvRes.timing.cycles);
    EXPECT_EQ(aBase.activity.zero, base.timing.activity.zero);
    EXPECT_EQ(aBase.activity.nonZero, base.timing.activity.nonZero);
    EXPECT_EQ(aCnv.activity.nonZero, cnvRes.timing.activity.nonZero);
    EXPECT_EQ(aCnv.activity.stall, cnvRes.timing.activity.stall);
    EXPECT_EQ(aBase.energy.sbReads, base.timing.energy.sbReads);
    EXPECT_EQ(aCnv.energy.sbReads, cnvRes.timing.energy.sbReads);
    EXPECT_EQ(aBase.energy.multOps, base.timing.energy.multOps);
    EXPECT_EQ(aCnv.energy.multOps, cnvRes.timing.energy.multOps);
    EXPECT_EQ(aBase.energy.nmReads, base.timing.energy.nmReads);
    EXPECT_EQ(aCnv.energy.nmReads, cnvRes.timing.energy.nmReads);
    EXPECT_EQ(aCnv.energy.encoderOps, cnvRes.timing.energy.encoderOps);

    // Structural invariants.
    const std::uint64_t laneEvents = 16ull * 16ull;
    EXPECT_EQ(base.timing.activity.total(),
              base.timing.cycles * laneEvents);
    EXPECT_EQ(cnvRes.timing.activity.total(),
              cnvRes.timing.cycles * laneEvents);
    // CNV performs exactly the baseline's useful work...
    EXPECT_EQ(cnvRes.timing.activity.nonZero,
              base.timing.activity.nonZero);
    // ...and never multiplies more.
    EXPECT_LE(cnvRes.timing.energy.multOps, base.timing.energy.multOps);
}

TEST_P(PropertySweep, PruningThresholdNeverIncreasesCnvWork)
{
    const Drawn d = draw(GetParam() ^ 0xabcdef);

    const auto plain = zfnaf::nonZeroCountMap(d.input, d.cfg.brickSize);
    const auto pruned =
        zfnaf::nonZeroCountMap(d.input, d.cfg.brickSize, 80);
    const auto a = timing::convCnv(d.cfg, d.params, d.input.shape(),
                                   plain);
    const auto b = timing::convCnv(d.cfg, d.params, d.input.shape(),
                                   pruned);
    EXPECT_LE(b.activity.nonZero, a.activity.nonZero);
    EXPECT_LE(b.cycles, a.cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<std::uint64_t>(1, 49));

} // namespace
