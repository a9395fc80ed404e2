/** @file Tests for the stats-report bridge. */

#include <gtest/gtest.h>

#include <sstream>

#include "arch/registry.h"
#include "driver/stats_report.h"
#include "mem/memory_model.h"
#include "nn/zoo/zoo.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;

dadiannao::NetworkResult
sampleRun(const arch::ArchModel &model)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    return model.simulateNetwork(cfg, *net, opts);
}

void
expectSameLayer(const dadiannao::LayerResult &a,
                const dadiannao::LayerResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.startCycle, b.startCycle);
    EXPECT_EQ(a.activity.other, b.activity.other);
    EXPECT_EQ(a.activity.conv1, b.activity.conv1);
    EXPECT_EQ(a.activity.zero, b.activity.zero);
    EXPECT_EQ(a.activity.nonZero, b.activity.nonZero);
    EXPECT_EQ(a.activity.stall, b.activity.stall);
    EXPECT_EQ(a.energy.sbReads, b.energy.sbReads);
    EXPECT_EQ(a.energy.nmReads, b.energy.nmReads);
    EXPECT_EQ(a.energy.multOps, b.energy.multOps);
    EXPECT_EQ(a.energy.offchipBytes, b.energy.offchipBytes);
    EXPECT_EQ(a.micro.laneBusyCycles, b.micro.laneBusyCycles);
    EXPECT_EQ(a.micro.laneIdleCycles, b.micro.laneIdleCycles);
    EXPECT_EQ(a.micro.encoderBusyCycles, b.micro.encoderBusyCycles);
    EXPECT_EQ(a.micro.encoderBricks, b.micro.encoderBricks);
    EXPECT_EQ(a.micro.stalls, b.micro.stalls);
    EXPECT_EQ(a.mem.nmAccesses, b.mem.nmAccesses);
    EXPECT_EQ(a.mem.nmConflictCycles, b.mem.nmConflictCycles);
    EXPECT_EQ(a.mem.gbHits, b.mem.gbHits);
    EXPECT_EQ(a.mem.gbMisses, b.mem.gbMisses);
    EXPECT_EQ(a.mem.gbEvictions, b.mem.gbEvictions);
    EXPECT_EQ(a.mem.dramBytes, b.mem.dramBytes);
    EXPECT_EQ(a.mem.dramCycles, b.mem.dramCycles);
}

const arch::ArchModel &
cnvModel()
{
    return arch::builtin().get("cnv");
}

TEST(StatsReport, TreeHoldsRunTotals)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());

    EXPECT_DOUBLE_EQ(stats->get("cycles"),
                     static_cast<double>(run.totalCycles()));
    EXPECT_DOUBLE_EQ(stats->get("activity.nonZero"),
                     static_cast<double>(run.totalActivity().nonZero));
    EXPECT_DOUBLE_EQ(stats->get("energy.sbReads"),
                     static_cast<double>(run.totalEnergy().sbReads));
}

TEST(StatsReport, DerivedFormulasAreConsistent)
{
    const auto &model = arch::builtin().get("dadiannao");
    const auto run = sampleRun(model);
    const auto stats = driver::buildStats(run, model);

    const auto activity = run.totalActivity();
    EXPECT_NEAR(stats->get("zeroShare"),
                static_cast<double>(activity.zero) / activity.total(),
                1e-12);
    const double util = stats->get("laneUtilisation");
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST(StatsReport, PowerScalarsMatchModel)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());
    const auto pb =
        cnvModel().power(run.totalEnergy(), run.totalCycles());
    EXPECT_NEAR(stats->get("power.totalWatts"), pb.total(), 1e-9);
    const auto m =
        cnvModel().metrics(run.totalEnergy(), run.totalCycles());
    EXPECT_NEAR(stats->get("power.edp"), m.edp, 1e-15);
}

TEST(StatsReport, PerLayerGroupsExist)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());
    // First layer entry is addressable and sums match.
    double layerCycles = 0.0;
    stats->visit([&](const std::string &name, const sim::Stat &s) {
        if (name.find("layers.") != std::string::npos &&
            name.rfind(".cycles") == name.size() - 7)
            layerCycles += s.value();
    });
    EXPECT_DOUBLE_EQ(layerCycles,
                     static_cast<double>(run.totalCycles()));
}

TEST(StatsReport, DumpIsReadable)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());
    std::ostringstream os;
    stats->dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cnv.cycles"), std::string::npos);
    EXPECT_NE(out.find("cnv.activity.stall"), std::string::npos);
    EXPECT_NE(out.find("cnv.power.totalWatts"), std::string::npos);
}

TEST(StatsReport, RunReportTimelinesAreTheAggregatesImageZeroRuns)
{
    // The report's timelines come from the aggregate's own (arch x
    // image) pass, not a second simulation: each must equal a
    // standalone run at the root seed, and the cache must have
    // synthesized every (image, conv layer) trace exactly once.
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 5);
    const auto archs = arch::builtin().select("dadiannao,cnv,cnv2");
    for (const mem::Kind kind : {mem::Kind::Ideal, mem::Kind::Banked}) {
        SCOPED_TRACE(mem::kindName(kind));
        driver::ExperimentConfig cfg;
        cfg.images = 2;
        cfg.seed = 5;
        cfg.memKind = kind;
        const driver::RunReport report =
            driver::buildRunReport(cfg, *net, archs);
        ASSERT_EQ(report.timelines.size(), archs.size());
        for (std::size_t a = 0; a < archs.size(); ++a) {
            SCOPED_TRACE(archs[a]->id());
            timing::RunOptions opts;
            opts.imageSeed = cfg.seed;
            opts.weightSparsity = cfg.weightSparsity;
            opts.memKind = kind;
            const auto alone =
                archs[a]->simulateNetwork(cfg.node, *net, opts);
            const driver::ArchTimeline &tl = report.timelines[a];
            EXPECT_EQ(tl.model, archs[a]);
            EXPECT_EQ(tl.result.architecture, alone.architecture);
            EXPECT_EQ(tl.result.memModelled, alone.memModelled);
            ASSERT_EQ(tl.result.layers.size(), alone.layers.size());
            for (std::size_t i = 0; i < alone.layers.size(); ++i)
                expectSameLayer(tl.result.layers[i], alone.layers[i]);
        }
        const auto images = static_cast<std::uint64_t>(cfg.images);
        const auto convLayers =
            static_cast<std::uint64_t>(net->convLayerCount());
        const timing::TraceCache::Stats &cs = report.cacheStats;
        EXPECT_EQ(cs.tensorMisses, images * convLayers);
        // One count-map lookup per (arch, image, conv layer): a
        // second simulation pass would add archs x layers more.
        EXPECT_EQ(cs.countMapHits + cs.countMapMisses,
                  archs.size() * images * convLayers);
    }
}

} // namespace
