/**
 * @file
 * Direct tests of the timing module: network-level composition,
 * monotonicity properties, the packed-row shallow-input schedule,
 * window batching arithmetic, and the FC zero-skipping extension.
 */

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/rng.h"
#include "timing/conv_model.h"
#include "timing/network_model.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using dadiannao::NodeConfig;
using tensor::Fixed16;
using tensor::NeuronTensor;

NeuronTensor
tensorWithSparsity(int x, int y, int z, double zf, std::uint64_t seed)
{
    NeuronTensor t(x, y, z);
    sim::Rng rng(seed);
    for (Fixed16 &v : t)
        v = rng.bernoulli(zf) ? Fixed16{} : Fixed16::fromRaw(7);
    return t;
}

TEST(TimingProperties, CnvCyclesDecreaseWithSparsity)
{
    nn::ConvParams p;
    p.filters = 32;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 1;
    const NodeConfig cfg;

    std::uint64_t prev = ~0ull;
    for (double zf : {0.0, 0.25, 0.5, 0.75, 0.95}) {
        const auto in = tensorWithSparsity(12, 12, 128, zf, 42);
        const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
        const auto r = timing::convCnv(cfg, p, in.shape(), counts);
        EXPECT_LT(r.cycles, prev) << zf;
        prev = r.cycles;
    }
}

TEST(TimingProperties, BaselineCyclesIgnoreSparsity)
{
    nn::ConvParams p;
    p.filters = 32;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 1;
    const NodeConfig cfg;

    std::uint64_t first = 0;
    for (double zf : {0.0, 0.5, 0.95}) {
        const auto in = tensorWithSparsity(12, 12, 128, zf, 43);
        const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
        const auto r =
            timing::convBaseline(cfg, p, in.shape(), counts, false);
        if (!first)
            first = r.cycles;
        EXPECT_EQ(r.cycles, first);
    }
}

TEST(TimingProperties, CnvSpeedupBoundedByNonZeroShare)
{
    // For an aligned, deep, unpadded layer, CNV cannot beat the
    // reciprocal of the (non-zero share + per-brick floor).
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 0;
    const NodeConfig cfg;

    const double zf = 0.6;
    const auto in = tensorWithSparsity(14, 14, 256, zf, 44);
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const auto base = timing::convBaseline(cfg, p, in.shape(), counts,
                                           false);
    const auto cnvRes = timing::convCnv(cfg, p, in.shape(), counts);
    const double speedup = static_cast<double>(base.cycles) /
                           static_cast<double>(cnvRes.cycles);
    EXPECT_LT(speedup, 1.0 / (1.0 - zf) * 1.05);
    EXPECT_GT(speedup, 1.0);
}

TEST(TimingProperties, PackedRowsAccelerateShallowInputs)
{
    // An 11x11 stride-4 filter over a 3-deep image (alex conv1):
    // packed rows need ceil-ish (11*3)/16 blocks per row instead of
    // 11 one-per-cell blocks.
    nn::ConvParams p;
    p.filters = 96;
    p.fx = p.fy = 11;
    p.stride = 4;
    p.pad = 0;
    const NodeConfig cfg;

    const auto in = tensorWithSparsity(227, 227, 3, 0.0, 45);
    const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
    const auto r = timing::convBaseline(cfg, p, in.shape(), counts, true);

    // 55x55 windows, 11 valid rows each, 3 blocks per row
    // (33 contiguous values spanning at most 3 aligned blocks, and
    // at least 3 for most alignments).
    EXPECT_LE(r.cycles, 55ull * 55 * 11 * 4);
    EXPECT_GE(r.cycles, 55ull * 55 * 11 * 3);
    // Far better than one cell per cycle (121 per window).
    EXPECT_LT(r.cycles, 55ull * 55 * 121);
}

TEST(TimingProperties, WindowBatchingNeverSlowsCnv)
{
    sim::Rng rng(46);
    nn::ConvParams p;
    p.filters = 16;
    p.fx = p.fy = 1;
    p.stride = 1;
    p.pad = 0;

    const auto in = tensorWithSparsity(10, 10, 96, 0.5, 47);
    std::uint64_t prev = ~0ull;
    for (int nbout : {16, 32, 64, 128}) {
        NodeConfig cfg;
        cfg.nboutEntries = nbout;
        const auto counts = zfnaf::nonZeroCountMap(in, cfg.brickSize);
        const auto r = timing::convCnv(cfg, p, in.shape(), counts);
        EXPECT_LE(r.cycles, prev) << nbout;
        prev = r.cycles;
    }
}

TEST(TimingNetwork, LayerSequenceCoversAllNodes)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    const auto r =
        timing::simulateNetwork(cfg, *net, timing::Arch::Cnv, opts);
    // Every conv node appears by name.
    for (int id : net->convNodeIds()) {
        const std::string &name = net->node(id).name;
        const bool found = std::any_of(
            r.layers.begin(), r.layers.end(),
            [&](const auto &l) { return l.name == name; });
        EXPECT_TRUE(found) << name;
    }
}

TEST(TimingNetwork, PruneOnlyAffectsCnv)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::CnnS, 3);
    dadiannao::NodeConfig cfg;
    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 64);

    timing::RunOptions plain, pruned;
    pruned.prune = &prune;
    EXPECT_EQ(timing::simulateNetwork(cfg, *net, timing::Arch::Baseline,
                                      plain)
                  .totalCycles(),
              timing::simulateNetwork(cfg, *net, timing::Arch::Baseline,
                                      pruned)
                  .totalCycles());
    EXPECT_GT(timing::simulateNetwork(cfg, *net, timing::Arch::Cnv, plain)
                  .totalCycles(),
              timing::simulateNetwork(cfg, *net, timing::Arch::Cnv,
                                      pruned)
                  .totalCycles());
}

TEST(TimingNetwork, FcSkippingExtensionHelpsFcHeavyNetworks)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    driver::ExperimentConfig off;
    off.images = 1;
    off.seed = 3;
    driver::ExperimentConfig on = off;
    on.node.cnvSkipsFcLayers = true;
    const double plain = driver::evaluateNetwork(off, *net).speedup();
    const double ext = driver::evaluateNetwork(on, *net).speedup();
    EXPECT_GT(ext, plain);
}

TEST(TimingNetwork, FcSkippingDoesNotChangeBaseline)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig off, on;
    on.cnvSkipsFcLayers = true;
    timing::RunOptions opts;
    EXPECT_EQ(
        timing::simulateNetwork(off, *net, timing::Arch::Baseline, opts)
            .totalCycles(),
        timing::simulateNetwork(on, *net, timing::Arch::Baseline, opts)
            .totalCycles());
}

TEST(TimingNetwork, GoogleFirstLayerShareIsModest)
{
    // After the packed-row fix, conv1's share of baseline cycles
    // sits near the paper's reported average (~21%), not the 45%+ a
    // depth-only fetch block would give.
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    const auto r = timing::simulateNetwork(cfg, *net,
                                           timing::Arch::Baseline, opts);
    const double conv1 =
        static_cast<double>(r.totalActivity().conv1) /
        static_cast<double>(r.totalActivity().total());
    EXPECT_GT(conv1, 0.10);
    EXPECT_LT(conv1, 0.35);
}

} // namespace
