/** @file Tests for the experiment driver and network timing model. */

#include <gtest/gtest.h>

#include "driver/driver.h"
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

} // namespace
