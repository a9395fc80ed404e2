/**
 * @file
 * Network-level trace/stall pipeline: buildStallProfile's totals
 * must equal the run's idle lane-cycles on both architectures (the
 * attribution invariant the whole stalls feature rests on), the
 * appendNetworkTrace events must fold back to the same numbers, and
 * the stall breakdown must surface in the cnv-report-v1 document.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "driver/stats_report.h"
#include "driver/trace_pipeline.h"
#include "nn/network.h"
#include "sim/stall_profile.h"
#include "support/json_parser.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;
using testsupport::Json;
using testsupport::Parser;

/** The report test's two-conv-layer network, small enough to run. */
nn::Network
makeNetwork()
{
    nn::Network net("tiny2", 11);
    int x = net.addInput({8, 8, 16});
    nn::ConvParams c;
    c.filters = 16;
    c.fx = c.fy = 3;
    c.stride = 1;
    c.pad = 1;
    c.inputZeroFraction = 0.5;
    x = net.addConv("c1", x, c);
    net.addConv("c2", x, c);
    net.deriveOutputTargets();
    return net;
}

dadiannao::NetworkResult
runArch(timing::Arch arch)
{
    const nn::Network net = makeNetwork();
    const dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    opts.imageSeed = 3;
    return timing::simulateNetwork(cfg, net, arch, opts);
}

TEST(TracePipeline, LayerStatKeysAreStableAndPathSafe)
{
    EXPECT_EQ(driver::layerStatKey(0, "c1"), "L0_c1");
    EXPECT_EQ(driver::layerStatKey(3, "inception.3a"), "L3_inception_3a");
}

TEST(TracePipeline, StallProfileTotalsMatchIdleCyclesOnBothArchs)
{
    for (timing::Arch arch : {timing::Arch::Cnv, timing::Arch::Baseline}) {
        const auto result = runArch(arch);
        const sim::StallProfile profile = driver::buildStallProfile(result);
        EXPECT_EQ(profile.totals().total(),
                  result.totalMicro().laneIdleCycles)
            << timing::archName(arch);

        // The invariant holds layer by layer, not just in aggregate.
        int index = 0;
        for (const auto &layer : result.layers) {
            EXPECT_EQ(layer.micro.stalls.total(),
                      layer.micro.laneIdleCycles)
                << timing::archName(arch) << " "
                << driver::layerStatKey(index, layer.name);
            ++index;
        }
    }
}

TEST(TracePipeline, NetworkTraceFoldsBackToTheProfile)
{
    const auto cnv = runArch(timing::Arch::Cnv);
    const auto base = runArch(timing::Arch::Baseline);

    sim::TraceSink sink;
    driver::appendNetworkTrace(sink, cnv, 1, "cnv (tiny2)");
    driver::appendNetworkTrace(sink, base, 2, "dadiannao (tiny2)");
    EXPECT_EQ(sink.droppedEvents(), 0u);

    sim::StallProfile cnvFold, baseFold;
    EXPECT_EQ(cnvFold.addFromTrace(sink, 1), 0u);
    EXPECT_EQ(baseFold.addFromTrace(sink, 2), 0u);
    EXPECT_EQ(cnvFold.totals().total(), cnv.totalMicro().laneIdleCycles);
    EXPECT_EQ(baseFold.totals().total(), base.totalMicro().laneIdleCycles);
    // ...and each reason's share of it.
    EXPECT_EQ(cnvFold.totals(), cnv.totalMicro().stalls);
    EXPECT_EQ(baseFold.totals(), base.totalMicro().stalls);

    // A CNV run on a half-zero input must actually report stalls
    // (the invariant would also hold trivially at zero).
    EXPECT_GT(cnvFold.totals().total(), 0u);

    // The document is valid trace JSON with one process per arch,
    // layer spans on tid 0 and stall spans keyed by layer.
    std::ostringstream os;
    sink.writeJson(os);
    Json doc = Parser(os.str()).parse();
    bool sawLayerSpan = false, sawKeyedStall = false;
    for (const Json &e : doc.at("traceEvents").array) {
        if (e.at("ph").text != "X")
            continue;
        if (e.at("cat").text == "layer" && e.at("tid").number == 0.0)
            sawLayerSpan = true;
        if (e.at("cat").text == "stall")
            sawKeyedStall |=
                e.at("args").at("layer").text.rfind("L", 0) == 0;
    }
    EXPECT_TRUE(sawLayerSpan);
    EXPECT_TRUE(sawKeyedStall);
}

TEST(TracePipeline, ReportJsonCarriesPerLayerStallCycles)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 7;
    const nn::Network net = makeNetwork();
    const driver::RunReport report = driver::buildRunReport(cfg, net);

    std::ostringstream os;
    driver::writeReportJson(report, os);
    Json doc = Parser(os.str()).parse();

    for (const char *arch : {"dadiannao", "cnv"}) {
        const Json &tree = doc.at("architectures").at(arch);
        const Json &layers = tree.at("groups").at("layers").at("groups");
        ASSERT_GE(layers.object.size(), 2u) << arch;
        for (const auto &[name, layer] : layers.object) {
            const Json &micro = layer.at("groups").at("micro");
            const Json &stalls =
                micro.at("groups").at("stalls").at("stats");
            double total = 0.0;
            for (const char *reason :
                 {"brick_buffer_empty", "window_barrier", "synapse_wait",
                  "slice_drained"})
                total += stalls.at(reason).at("value").number;
            EXPECT_EQ(total,
                      micro.at("stats").at("laneIdleCycles").at("value")
                          .number)
                << arch << "." << name;
        }
    }
}

} // namespace
