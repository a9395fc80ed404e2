/**
 * @file
 * End-to-end pins for the memory hierarchy: the ideal backend must
 * reproduce its pinned nin cycle counts bit-identical (every
 * timing-model access goes through `mem::`, so any accidental cost
 * on the ideal path shows up here), and the banked
 * backend must attribute its extra cycles without breaking the
 * stalls.total() == laneIdleCycles invariant and reproduce its
 * pinned nin cycle and counter totals, and google's over the
 * design-sweep grid of lane assignments and NBout depths.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arch/registry.h"
#include "driver/driver.h"
#include "driver/stats_report.h"
#include "mem/memory_model.h"
#include "nn/zoo/zoo.h"
#include "support/json_parser.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

namespace {

using namespace cnv;
using testsupport::Json;
using testsupport::Parser;

TEST(MemoryModelPins, IdealReproducesPreRefactorCycleCounts)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 2016;
    ASSERT_EQ(cfg.memKind, mem::Kind::Ideal); // the default
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, cfg.seed);
    const auto report = driver::evaluateNetworkArchs(
        cfg, *net, arch::builtin().select("dadiannao,cnv,cnv2"));

    // Ideal nin cycle counts, pinned: the ideal path must not pick up
    // any memory cost. cnv and cnv2 move only with the traces.
    EXPECT_EQ(report.arch("dadiannao").cycles, 362123u);
    EXPECT_EQ(report.arch("cnv").cycles, 285971u);
    EXPECT_EQ(report.arch("cnv2").cycles, 262191u);
    for (const driver::ArchAggregate &a : report.archs) {
        EXPECT_FALSE(a.memModelled) << a.id();
        EXPECT_EQ(a.mem.nmAccesses, 0u) << a.id();
    }
}

TEST(MemoryModelPins, BankedKeepsStallAttributionInvariant)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    dadiannao::NodeConfig cfg;
    for (const char *archId : {"dadiannao", "cnv", "cnv2"}) {
        const arch::ArchModel &model = arch::builtin().get(archId);
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.memKind = mem::Kind::Banked;
        const auto run = model.simulateNetwork(cfg, *net, opts);
        EXPECT_TRUE(run.memModelled) << archId;
        for (const dadiannao::LayerResult &layer : run.layers)
            EXPECT_EQ(layer.micro.stalls.total(),
                      layer.micro.laneIdleCycles)
                << archId << " " << layer.name;
        if (std::string(archId) == "dadiannao") {
            // One unit-wide fetch pointer never conflicts...
            EXPECT_EQ(
                run.totalMicro().stalls[sim::StallReason::NmBankConflict],
                0u);
            EXPECT_GT(run.totalMem().nmAccesses, 0u);
        } else {
            // ...while CNV's sixteen independent slice pointers do.
            EXPECT_GT(
                run.totalMicro().stalls[sim::StallReason::NmBankConflict],
                0u)
                << archId;
        }
    }
}

TEST(MemoryModelPins, BankedCycleAndCounterTotalsArePinned)
{
    // Absolute banked numbers for nin, image seed 2016: any change to
    // the bank-conflict replay, the global buffer or the DRAM channel
    // moves at least one of these.
    struct Pin
    {
        const char *arch;
        std::uint64_t cycles;
        mem::Counters mem;
    };
    const Pin pins[] = {
        {"dadiannao", 362123u,
         {357434u, 0u, 0u, 0u, 0u, 15179840u, 29649u}},
        {"cnv", 298711u,
         {175210u, 46u, 182224u, 78982u, 42214u, 15179840u, 29649u}},
        {"cnv2", 276616u,
         {175210u, 46u, 182224u, 78982u, 42214u, 15179840u, 29649u}},
    };
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    dadiannao::NodeConfig cfg;
    for (const Pin &pin : pins) {
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.memKind = mem::Kind::Banked;
        const auto run =
            arch::builtin().get(pin.arch).simulateNetwork(cfg, *net, opts);
        EXPECT_EQ(run.totalCycles(), pin.cycles) << pin.arch;
        const auto total = run.totalMem();
        EXPECT_EQ(total.nmAccesses, pin.mem.nmAccesses) << pin.arch;
        EXPECT_EQ(total.nmConflictCycles, pin.mem.nmConflictCycles)
            << pin.arch;
        EXPECT_EQ(total.gbHits, pin.mem.gbHits) << pin.arch;
        EXPECT_EQ(total.gbMisses, pin.mem.gbMisses) << pin.arch;
        EXPECT_EQ(total.gbEvictions, pin.mem.gbEvictions) << pin.arch;
        EXPECT_EQ(total.dramBytes, pin.mem.dramBytes) << pin.arch;
        EXPECT_EQ(total.dramCycles, pin.mem.dramCycles) << pin.arch;
    }
}

TEST(MemoryModelPins, DesignSweepBankedGridIsPinned)
{
    // Banked google totals, image seed 2016, Cnvlutin2 weight
    // sparsity 0.35, at every lane assignment and NBout depth of the
    // design sweep: the lane rotation and the window-group size each
    // reach the bank-conflict replay, which the default point
    // (WindowEven, 64) alone would not cover.
    using dadiannao::LaneAssignment;
    struct Pin
    {
        LaneAssignment lanes;
        int nboutEntries;
        const char *arch;
        std::uint64_t cycles;
        mem::Counters mem;
    };
    const Pin pins[] = {
        {LaneAssignment::ZOnly, 48, "cnv", 1532888u,
         {476953u, 1699u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::ZOnly, 48, "cnv2", 1331084u,
         {476953u, 1699u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::ZOnly, 64, "cnv", 1531118u,
         {476953u, 2164u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::ZOnly, 64, "cnv2", 1330218u,
         {476953u, 2164u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::ZOnly, 96, "cnv", 1528144u,
         {476953u, 2615u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::ZOnly, 96, "cnv2", 1328951u,
         {476953u, 2615u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::XYZHash, 48, "cnv", 1086074u,
         {476953u, 4467u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::XYZHash, 48, "cnv2", 916293u,
         {476953u, 4467u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::XYZHash, 64, "cnv", 1064036u,
         {476953u, 5512u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::XYZHash, 64, "cnv2", 902509u,
         {476953u, 5512u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::XYZHash, 96, "cnv", 985621u,
         {476953u, 8450u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::XYZHash, 96, "cnv2", 848812u,
         {476953u, 8450u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::WindowEven, 48, "cnv", 765530u,
         {476953u, 308u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::WindowEven, 48, "cnv2", 719855u,
         {476953u, 308u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::WindowEven, 64, "cnv", 758281u,
         {476953u, 336u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::WindowEven, 64, "cnv2", 710620u,
         {476953u, 336u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::WindowEven, 96, "cnv", 753884u,
         {476953u, 415u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
        {LaneAssignment::WindowEven, 96, "cnv2", 704837u,
         {476953u, 415u, 375330u, 283231u, 117456u, 26731392u, 52210u}},
    };
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016);
    timing::TraceCache cache;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(testing::Message()
                     << pin.arch << ", lane assignment "
                     << static_cast<int>(pin.lanes) << ", NBout "
                     << pin.nboutEntries);
        dadiannao::NodeConfig cfg;
        cfg.laneAssignment = pin.lanes;
        cfg.nboutEntries = pin.nboutEntries;
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.memKind = mem::Kind::Banked;
        opts.weightSparsity = 0.35;
        opts.cache = &cache;
        const auto run =
            arch::builtin().get(pin.arch).simulateNetwork(cfg, *net, opts);
        EXPECT_EQ(run.totalCycles(), pin.cycles);
        const auto total = run.totalMem();
        EXPECT_EQ(total.nmAccesses, pin.mem.nmAccesses);
        EXPECT_EQ(total.nmConflictCycles, pin.mem.nmConflictCycles);
        EXPECT_EQ(total.gbHits, pin.mem.gbHits);
        EXPECT_EQ(total.gbMisses, pin.mem.gbMisses);
        EXPECT_EQ(total.gbEvictions, pin.mem.gbEvictions);
        EXPECT_EQ(total.dramBytes, pin.mem.dramBytes);
        EXPECT_EQ(total.dramCycles, pin.mem.dramCycles);
    }
}

TEST(MemoryModelPins, BankedReportCarriesSummaryMemory)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 2016;
    cfg.memKind = mem::Kind::Banked;
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, cfg.seed);
    const auto report = driver::buildRunReport(
        cfg, *net, arch::builtin().select("dadiannao,cnv"));

    std::ostringstream os;
    driver::writeReportJson(report, os);
    Json doc = Parser(os.str()).parse();

    EXPECT_EQ(doc.at("manifest").at("mem").text, "banked");
    const Json &memory = doc.at("summary").at("memory");
    const Json &cnv = memory.at("cnv");
    EXPECT_GT(cnv.at("nmConflictCycles").number, 0.0);
    EXPECT_GT(cnv.at("gbHits").number, 0.0);
    EXPECT_GT(cnv.at("dramBytes").number, 0.0);
    EXPECT_EQ(memory.at("dadiannao").at("nmConflictCycles").number, 0.0);
    const double boundSplit = cnv.at("memoryBoundLayers").number +
                              cnv.at("computeBoundLayers").number;
    EXPECT_GT(boundSplit, 0.0);

    // The per-arch stat trees carry the new counters too.
    const Json &cnvMem =
        doc.at("architectures").at("cnv").at("groups").at("memory");
    EXPECT_GT(cnvMem.at("stats").at("nmAccesses").at("value").number,
              0.0);
}

} // namespace
