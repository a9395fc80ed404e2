/**
 * @file
 * Tests for the structural CNV pipeline: functional equivalence
 * with the golden model and the fast CNV model, and timing
 * agreement up to the documented one-time NM fill per window group.
 */

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "ref/cnv_pipeline.h"
#include "ref/cnv_unit.h"
#include "sim/error.h"
#include "sim/rng.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using ref::DispatcherConfig;
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
makeSetup(int ix, int iy, int iz, int filters, int k, double sparsity,
          std::uint64_t seed)
{
    LayerSetup s;
    s.p.filters = filters;
    s.p.fx = s.p.fy = k;
    s.p.stride = 1;
    s.p.pad = k / 2;

    sim::Rng rng(seed);
    s.input = NeuronTensor(ix, iy, iz);
    for (Fixed16 &v : s.input)
        v = rng.bernoulli(sparsity)
            ? Fixed16{}
            : Fixed16::fromRaw(static_cast<std::int16_t>(
                  rng.uniformInt(std::int64_t{1}, std::int64_t{200})));
    s.weights = FilterBank(filters, k, k, iz);
    for (std::size_t i = 0; i < s.weights.size(); ++i)
        s.weights.data()[i] = Fixed16::fromRaw(static_cast<std::int16_t>(
            rng.uniformInt(std::int64_t{-50}, std::int64_t{50})));
    s.bias.resize(filters);
    for (Fixed16 &b : s.bias)
        b = Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(std::int64_t{-30},
                                                     std::int64_t{30})));
    return s;
}

TEST(Pipeline, MatchesGoldenModelBitExactly)
{
    const LayerSetup s = makeSetup(6, 6, 48, 16, 3, 0.5, 11);
    const NodeConfig cfg;
    const auto enc = zfnaf::encode(s.input, cfg.brickSize);
    const auto r = ref::runConvPipeline(cfg, DispatcherConfig{}, s.p, enc,
                                        s.weights, s.bias);
    EXPECT_EQ(r.output, nn::conv2d(s.input, s.weights, s.bias, s.p));
}

TEST(Pipeline, CycleCountTracksFastModelWithinFillOverhead)
{
    const LayerSetup s = makeSetup(8, 8, 64, 16, 3, 0.45, 13);
    const NodeConfig cfg;
    const auto enc = zfnaf::encode(s.input, cfg.brickSize);

    DispatcherConfig dcfg;
    dcfg.nmLatencyCycles = 2;
    dcfg.bbDepth = 3; // latency fully hidden in steady state

    const auto pipe = ref::runConvPipeline(cfg, dcfg, s.p, enc,
                                           s.weights, s.bias);
    const auto fast =
        ref::simulateConvCnv(cfg, s.p, enc, s.weights, s.bias);

    EXPECT_EQ(pipe.output, fast.output);
    // The pipeline pays the NM fill once per window group on top of
    // the fast model's steady-state count.
    const std::uint64_t windows = 8 * 8;
    const std::uint64_t groups =
        (windows + cfg.windowsInFlight() - 1) / cfg.windowsInFlight();
    EXPECT_GE(pipe.cycles, fast.timing.cycles);
    EXPECT_LE(pipe.cycles,
              fast.timing.cycles + groups * (dcfg.nmLatencyCycles + 1));
    // Same NM traffic.
    EXPECT_EQ(pipe.nmReads, fast.timing.energy.nmReads);
}

TEST(Pipeline, EncoderOutputMatchesReferenceEncoding)
{
    const LayerSetup s = makeSetup(4, 4, 32, 16, 1, 0.4, 17);
    const NodeConfig cfg;
    const auto enc = zfnaf::encode(s.input, cfg.brickSize);
    const auto r = ref::runConvPipeline(cfg, DispatcherConfig{}, s.p, enc,
                                        s.weights, s.bias);
    // Re-encode the pipeline's output; it must equal the library
    // encoding of the same tensor (the encoder unit was validated
    // brick by brick in test_microarch).
    const auto reEnc = zfnaf::encode(r.output, cfg.brickSize);
    EXPECT_EQ(zfnaf::decode(reEnc), r.output);
    // The serial encoder examined every output neuron exactly once.
    EXPECT_EQ(r.encoderBusyCycles, r.output.size());
}

TEST(Pipeline, HigherNmLatencyNeverReducesCycles)
{
    const LayerSetup s = makeSetup(6, 6, 32, 16, 3, 0.5, 19);
    const NodeConfig cfg;
    const auto enc = zfnaf::encode(s.input, cfg.brickSize);

    std::uint64_t prev = 0;
    for (int latency : {1, 2, 4, 8}) {
        DispatcherConfig dcfg;
        dcfg.nmLatencyCycles = latency;
        dcfg.bbDepth = 2;
        const auto r = ref::runConvPipeline(cfg, dcfg, s.p, enc,
                                            s.weights, s.bias);
        EXPECT_GE(r.cycles, prev) << latency;
        prev = r.cycles;
    }
}

TEST(Pipeline, RejectsMultiPassLayers)
{
    cnv::sim::setVerbosity(cnv::sim::Verbosity::Silent);
    const LayerSetup s = makeSetup(4, 4, 16, 300, 1, 0.5, 23);
    const NodeConfig cfg;
    const auto enc = zfnaf::encode(s.input, cfg.brickSize);
    EXPECT_THROW(ref::runConvPipeline(cfg, DispatcherConfig{}, s.p, enc,
                                      s.weights, s.bias),
                 cnv::sim::PanicError);
    cnv::sim::setVerbosity(cnv::sim::Verbosity::Info);
}

} // namespace
