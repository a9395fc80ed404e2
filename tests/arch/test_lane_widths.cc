/**
 * @file
 * Cross-validation at non-default lane/brick widths (the brick-size
 * ablation's configurations): the functional and model-equality
 * invariants must hold when the node is built from 4-, 8-, or
 * 32-wide subunits, not just the paper's 16.
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
using dadiannao::NodeConfig;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;

class LaneWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(LaneWidths, ModelsAgreeAndOutputsMatch)
{
    const int width = GetParam();
    NodeConfig cfg;
    cfg.lanes = cfg.brickSize = cfg.nmBanks = width;
    cfg.validate();

    sim::Rng rng(1000 + width);
    nn::ConvParams p;
    p.filters = 24;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 1;

    NeuronTensor in(9, 9, 96);
    for (Fixed16 &v : in)
        v = rng.bernoulli(0.44)
            ? Fixed16{}
            : Fixed16::fromRaw(static_cast<std::int16_t>(
                  rng.uniformInt(std::int64_t{1}, std::int64_t{200})));
    FilterBank w(24, 3, 3, 96);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = Fixed16::fromRaw(static_cast<std::int16_t>(
            rng.uniformInt(std::int64_t{-30}, std::int64_t{30})));
    std::vector<Fixed16> bias(24);

    const NeuronTensor golden = nn::conv2d(in, w, bias, p);
    const auto base =
        ref::simulateConvBaseline(cfg, p, in, w, bias, false);
    EXPECT_EQ(base.output, golden);

    const auto enc = zfnaf::encode(in, width);
    const auto cnvRes = ref::simulateConvCnv(cfg, p, enc, w, bias);
    EXPECT_EQ(cnvRes.output, golden);

    const auto counts = zfnaf::nonZeroCountMap(in, width);
    EXPECT_EQ(timing::convBaseline(cfg, p, in.shape(), counts, false)
                  .cycles,
              base.timing.cycles);
    EXPECT_EQ(timing::convCnv(cfg, p, in.shape(), counts).cycles,
              cnvRes.timing.cycles);

    // Narrower bricks skip at finer grain: CNV beats its baseline.
    EXPECT_LT(cnvRes.timing.cycles, base.timing.cycles);
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneWidths,
                         ::testing::Values(4, 8, 16, 32));

} // namespace
