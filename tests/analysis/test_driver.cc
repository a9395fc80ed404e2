/** @file Tests for the experiment driver and network timing model. */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/registry.h"
#include "driver/driver.h"
#include "sim/parallel.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;

TEST(TimingModel, BaselineCyclesAreContentIndependent)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions a, b;
    a.imageSeed = 1;
    b.imageSeed = 2;
    const auto ra = timing::simulateNetwork(cfg, *net,
                                            timing::Arch::Baseline, a);
    const auto rb = timing::simulateNetwork(cfg, *net,
                                            timing::Arch::Baseline, b);
    EXPECT_EQ(ra.totalCycles(), rb.totalCycles());
    // ... but the zero/non-zero split differs slightly.
    EXPECT_NE(ra.totalActivity().zero, rb.totalActivity().zero);
}

TEST(TimingModel, CnvFasterThanBaselineOnEveryNetwork)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 5;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 3);
        const double s = driver::evaluateNetwork(cfg, *net).speedup();
        EXPECT_GT(s, 1.0) << nn::zoo::netName(id);
        EXPECT_LT(s, 2.0) << nn::zoo::netName(id);
    }
}

TEST(TimingModel, ActivityAccountsEveryLaneCycle)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::CnnM, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    for (auto arch : {timing::Arch::Baseline, timing::Arch::Cnv}) {
        const auto r = timing::simulateNetwork(cfg, *net, arch, opts);
        EXPECT_EQ(r.totalActivity().total(),
                  r.totalCycles() * 256u)
            << timing::archName(arch);
    }
}

TEST(TimingModel, PruningIncreasesCnvSpeedup)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 5;
    const double plain = driver::evaluateNetwork(cfg, *net).speedup();
    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 32);
    const double pruned =
        driver::evaluateNetwork(cfg, *net, &prune).speedup();
    EXPECT_GT(pruned, plain);
}

TEST(Driver, EvaluateAggregatesImages)
{
    driver::ExperimentConfig cfg;
    cfg.images = 2;
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, cfg.seed);
    const auto report = driver::evaluateNetwork(cfg, *net);
    EXPECT_EQ(report.images, 2);
    EXPECT_GT(report.speedup(), 1.0);
    const auto &base = report.arch("dadiannao");
    const auto &cnvAgg = report.arch("cnv");
    EXPECT_GT(base.cycles, cnvAgg.cycles);
    // Baseline has no stall events; CNV has no zero events.
    EXPECT_EQ(base.activity.stall, 0u);
    EXPECT_EQ(cnvAgg.activity.zero, 0u);
    EXPECT_GT(cnvAgg.activity.stall, 0u);
    EXPECT_EQ(report.findArch("cnv-b8"), nullptr);
}

TEST(Driver, WalkGroupsMatchEveryArchRunAlone)
{
    // cnv and cnv2 share one walk, cnv-b8 (another node config) and
    // cnv-pruned (another prune) walk alone, the baseline never
    // joins: every timeline must equal the arch simulated by itself.
    const auto archs = arch::builtin().select(
        "dadiannao,cnv,cnv2,cnv-b8,cnv-pruned");
    driver::ExperimentConfig cfg;
    cfg.images = 2;
    const auto groups = arch::walkGroups(archs, cfg.node);
    const std::vector<std::vector<std::size_t>> wantGroups = {
        {0}, {1, 2}, {3}, {4}};
    EXPECT_EQ(groups, wantGroups);

    const auto net = nn::zoo::build(nn::zoo::NetId::Google, cfg.seed);
    const int jobsBefore = sim::jobCount();
    for (const mem::Kind kind : {mem::Kind::Ideal, mem::Kind::Banked}) {
        cfg.memKind = kind;
        // Each arch alone: image 0's run and the cycles of both.
        std::vector<dadiannao::NetworkResult> alone;
        std::vector<std::uint64_t> aloneCycles;
        for (const arch::ArchModel *model : archs) {
            timing::RunOptions opts;
            opts.weightSparsity = cfg.weightSparsity;
            opts.memKind = kind;
            std::uint64_t cycles = 0;
            for (int image = cfg.images - 1; image >= 0; --image) {
                opts.imageSeed =
                    cfg.seed + static_cast<std::uint64_t>(image);
                auto run = model->simulateNetwork(cfg.node, *net, opts);
                cycles += run.totalCycles();
                if (image == 0)
                    alone.push_back(std::move(run));
            }
            aloneCycles.push_back(cycles);
        }
        for (const int jobs : {1, 4}) {
            SCOPED_TRACE(testing::Message() << mem::kindName(kind)
                                            << ", jobs " << jobs);
            sim::setJobCount(jobs);
            std::vector<driver::ArchTimeline> timelines;
            const driver::NetworkReport report =
                driver::evaluateNetworkArchs(cfg, *net, archs, nullptr,
                                             nullptr, &timelines);
            ASSERT_EQ(timelines.size(), archs.size());
            for (std::size_t a = 0; a < archs.size(); ++a) {
                EXPECT_EQ(report.archs[a].cycles, aloneCycles[a])
                    << archs[a]->id();
                const dadiannao::NetworkResult &got = timelines[a].result;
                EXPECT_EQ(timelines[a].model, archs[a]);
                EXPECT_EQ(got.architecture, alone[a].architecture);
                EXPECT_EQ(got.memModelled, alone[a].memModelled);
                ASSERT_EQ(got.layers.size(), alone[a].layers.size());
                for (std::size_t i = 0; i < got.layers.size(); ++i)
                    EXPECT_TRUE(got.layers[i] == alone[a].layers[i])
                        << archs[a]->id() << " " << got.layers[i].name;
            }
        }
    }
    sim::setJobCount(jobsBefore);
}

} // namespace
