/**
 * @file
 * Tests for the structural baseline pipeline: functional
 * equivalence with the golden model and cycle agreement with the
 * closed-form model up to the one-cycle NBin latch latency.
 */

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "ref/baseline_pipeline.h"
#include "sim/error.h"
#include "sim/rng.h"
#include "timing/conv_model.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using dadiannao::NodeConfig;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;

struct LayerSetup
{
    nn::ConvParams p;
    NeuronTensor input;
    FilterBank weights;
    std::vector<Fixed16> bias;
};

LayerSetup
makeSetup(int ix, int iy, int iz, int filters, int k, int stride, int pad,
          double sparsity, std::uint64_t seed)
{
    LayerSetup s;
    s.p.filters = filters;
    s.p.fx = s.p.fy = k;
    s.p.stride = stride;
    s.p.pad = pad;
    sim::Rng rng(seed);
    s.input = NeuronTensor(ix, iy, iz);
    for (Fixed16 &v : s.input)
        v = rng.bernoulli(sparsity)
            ? Fixed16{}
            : Fixed16::fromRaw(static_cast<std::int16_t>(
                  rng.uniformInt(std::int64_t{1}, std::int64_t{250})));
    s.weights = FilterBank(filters, k, k, iz);
    for (std::size_t i = 0; i < s.weights.size(); ++i)
        s.weights.data()[i] = Fixed16::fromRaw(static_cast<std::int16_t>(
            rng.uniformInt(std::int64_t{-40}, std::int64_t{40})));
    s.bias.resize(filters);
    return s;
}

TEST(BaselinePipeline, MatchesGoldenModelBitExactly)
{
    const LayerSetup s = makeSetup(6, 5, 48, 20, 3, 1, 1, 0.5, 3);
    const NodeConfig cfg;
    const auto r = ref::runConvPipelineBaseline(
        cfg, s.p, s.input, s.weights, s.bias);
    EXPECT_EQ(r.output, nn::conv2d(s.input, s.weights, s.bias, s.p));
}

TEST(BaselinePipeline, CyclesMatchClosedFormPlusLatchLatency)
{
    const LayerSetup s = makeSetup(7, 7, 64, 16, 2, 2, 0, 0.4, 5);
    const NodeConfig cfg;
    const auto pipe = ref::runConvPipelineBaseline(
        cfg, s.p, s.input, s.weights, s.bias);
    const auto counts = zfnaf::nonZeroCountMap(s.input, cfg.brickSize);
    const auto fast = timing::convBaseline(cfg, s.p, s.input.shape(),
                                           counts, false);
    // One block per cycle, plus one cycle of NBin register latency.
    EXPECT_EQ(pipe.cycles, fast.cycles + 1);
    EXPECT_EQ(pipe.nmReads, fast.energy.nmReads);
}

TEST(BaselinePipeline, CyclesAreSparsityIndependent)
{
    const NodeConfig cfg;
    std::uint64_t dense = 0;
    for (double zf : {0.0, 0.9}) {
        const LayerSetup s = makeSetup(6, 6, 32, 16, 3, 1, 0, zf, 7);
        const auto r = ref::runConvPipelineBaseline(
            cfg, s.p, s.input, s.weights, s.bias);
        if (!dense)
            dense = r.cycles;
        EXPECT_EQ(r.cycles, dense);
    }
}

TEST(BaselinePipeline, RejectsShallowAndMultiPassLayers)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    const NodeConfig cfg;
    {
        const LayerSetup s = makeSetup(6, 6, 3, 16, 3, 1, 0, 0.0, 9);
        EXPECT_THROW(ref::runConvPipelineBaseline(
                         cfg, s.p, s.input, s.weights, s.bias),
                     sim::PanicError);
    }
    {
        const LayerSetup s = makeSetup(4, 4, 32, 300, 1, 1, 0, 0.0, 11);
        EXPECT_THROW(ref::runConvPipelineBaseline(
                         cfg, s.p, s.input, s.weights, s.bias),
                     sim::PanicError);
    }
    sim::setVerbosity(sim::Verbosity::Info);
}

} // namespace
