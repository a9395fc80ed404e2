/**
 * @file
 * Tests for external trace injection: a DirectoryTraceProvider fed
 * with exported traces must reproduce the synthetic run exactly,
 * honour pruning thresholds (per producer branch of a concat input),
 * fall back gracefully on missing files,
 * and reject shape mismatches.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "tensor/serialize.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;

class TraceProviderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "cnv_traces";
        std::filesystem::create_directories(dir_);
        net_ = nn::zoo::build(nn::zoo::NetId::Alex, 77);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    void
    exportAll(std::uint64_t seed)
    {
        const timing::DirectoryTraceProvider provider(dir_);
        for (int nodeId : net_->convNodeIds()) {
            tensor::saveTensorFile(
                provider.pathFor(*net_, nodeId, seed),
                nn::synthesizeConvInput(*net_, nodeId, seed));
        }
    }

    std::string dir_;
    std::unique_ptr<nn::Network> net_;
};

TEST_F(TraceProviderTest, ExportedTracesReproduceSyntheticRunExactly)
{
    exportAll(5);
    const timing::DirectoryTraceProvider provider(dir_);
    const dadiannao::NodeConfig cfg;

    timing::RunOptions synthetic, external;
    synthetic.imageSeed = 5;
    external.imageSeed = 5;
    external.traces = &provider;

    for (auto arch : {timing::Arch::Baseline, timing::Arch::Cnv}) {
        const auto a = timing::simulateNetwork(cfg, *net_, arch,
                                               synthetic);
        const auto b = timing::simulateNetwork(cfg, *net_, arch,
                                               external);
        EXPECT_EQ(a.totalCycles(), b.totalCycles());
        EXPECT_EQ(a.totalActivity().zero, b.totalActivity().zero);
        EXPECT_EQ(a.totalActivity().nonZero, b.totalActivity().nonZero);
    }
}

TEST_F(TraceProviderTest, PruningAppliesToExternalTraces)
{
    exportAll(6);
    const timing::DirectoryTraceProvider provider(dir_);
    const dadiannao::NodeConfig cfg;

    nn::PruneConfig prune;
    prune.thresholds.assign(net_->convLayerCount(), 48);

    timing::RunOptions plain, pruned;
    plain.imageSeed = pruned.imageSeed = 6;
    plain.traces = pruned.traces = &provider;
    pruned.prune = &prune;

    const auto a =
        timing::simulateNetwork(cfg, *net_, timing::Arch::Cnv, plain);
    const auto b =
        timing::simulateNetwork(cfg, *net_, timing::Arch::Cnv, pruned);
    EXPECT_LT(b.totalCycles(), a.totalCycles());

    // The pruned external run matches the pruned synthetic run: the
    // same thresholds were applied to the same values.
    timing::RunOptions syntheticPruned;
    syntheticPruned.imageSeed = 6;
    syntheticPruned.prune = &prune;
    const auto c = timing::simulateNetwork(cfg, *net_, timing::Arch::Cnv,
                                           syntheticPruned);
    EXPECT_EQ(b.totalCycles(), c.totalCycles());

    // A concat-fed google layer with a different threshold per
    // producer branch: the provider's tensor is pruned segment by
    // segment as synthesis prunes it, at brick sizes that straddle
    // segment edges.
    const auto google = nn::zoo::build(nn::zoo::NetId::Google, 77);
    int nodeId = -1;
    for (int id : google->convNodeIds())
        if (nn::inputSegments(*google, id).size() == 4)
            nodeId = id;
    ASSERT_GE(nodeId, 0);
    tensor::saveTensorFile(provider.pathFor(*google, nodeId, 6),
                           nn::synthesizeConvInput(*google, nodeId, 6));
    nn::PruneConfig branches;
    branches.thresholds.assign(google->convLayerCount(), 0);
    const std::int32_t branch[] = {48, 2, 4097, 0};
    const auto segments = nn::inputSegments(*google, nodeId);
    for (std::size_t k = 0; k < segments.size(); ++k)
        branches.thresholds[segments[k].producerConvIndex] = branch[k];
    const auto expected =
        nn::synthesizeConvInput(*google, nodeId, 6, &branches);
    timing::TraceCache cache;
    for (int brick : {16, 3})
        EXPECT_EQ(*cache.countMap(*google, nodeId, 6, &provider, &branches,
                                  brick),
                  zfnaf::nonZeroCountMap(expected, brick))
            << "brick " << brick;
}

TEST_F(TraceProviderTest, MissingFilesFallBackToSynthesis)
{
    // Export only the second conv layer's trace; everything still
    // runs and matches the synthetic totals (the exported trace is
    // the synthetic one).
    const timing::DirectoryTraceProvider provider(dir_);
    const int node1 = net_->convNodeIds()[1];
    tensor::saveTensorFile(provider.pathFor(*net_, node1, 7),
                           nn::synthesizeConvInput(*net_, node1, 7));

    const dadiannao::NodeConfig cfg;
    timing::RunOptions synthetic, partial;
    synthetic.imageSeed = partial.imageSeed = 7;
    partial.traces = &provider;
    EXPECT_EQ(timing::simulateNetwork(cfg, *net_, timing::Arch::Cnv,
                                      synthetic)
                  .totalCycles(),
              timing::simulateNetwork(cfg, *net_, timing::Arch::Cnv,
                                      partial)
                  .totalCycles());
}

TEST_F(TraceProviderTest, ShapeMismatchIsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    const timing::DirectoryTraceProvider provider(dir_);
    const int node1 = net_->convNodeIds()[1];
    tensor::saveTensorFile(provider.pathFor(*net_, node1, 8),
                           tensor::NeuronTensor(2, 2, 2));

    const dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    opts.imageSeed = 8;
    opts.traces = &provider;
    EXPECT_THROW(timing::simulateNetwork(cfg, *net_, timing::Arch::Cnv,
                                         opts),
                 sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

TEST(SynthesizeConvInput, PruneUsesProducerThresholds)
{
    // In a concat-fed layer, each depth segment is pruned with the
    // threshold of the conv that produced it.
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 3, 8);
    // Find a conv fed by a 4-way concat.
    int target = -1;
    for (int id : net->convNodeIds()) {
        if (nn::inputSegments(*net, id).size() == 4) {
            target = id;
            break;
        }
    }
    ASSERT_GE(target, 0);

    const auto segments = nn::inputSegments(*net, target);
    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 0);
    // Prune only the first segment's producer, aggressively.
    prune.thresholds[segments[0].producerConvIndex] = 30000;

    const auto before = nn::synthesizeConvInput(*net, target, 9);
    const auto input = nn::synthesizeConvInput(*net, target, 9, &prune);

    // First segment largely zeroed; later segments untouched.
    int z0 = segments[0].depth;
    std::size_t changed = 0;
    for (int y = 0; y < input.shape().y; ++y)
        for (int x = 0; x < input.shape().x; ++x) {
            for (int z = 0; z < z0; ++z)
                changed += !(input.at(x, y, z) == before.at(x, y, z));
            for (int z = z0; z < input.shape().z; ++z)
                EXPECT_EQ(input.at(x, y, z), before.at(x, y, z));
        }
    EXPECT_GT(changed, 0u);
}

} // namespace
