/**
 * @file
 * Seeded randomised differential test of the encoded conv timing
 * models (timing::convCnv and timing::convCnv2) against the per-pass,
 * per-brick oracle in reference_cnv2.h. Each case draws a layer shape
 * (depths off the brick size included), filter geometry, a filter
 * count spanning one to three passes, a lane/brick width, an NBout
 * depth, a lane assignment, the empty-brick cost and a weight
 * sparsity, and runs with the ideal hierarchy or with a banked
 * MemoryModel pair fed in lockstep. Every LayerResult field and the
 * drained memory counters must match exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>

#include "analysis/reference_cnv2.h"
#include "dadiannao/config.h"
#include "mem/memory_model.h"
#include "timing/conv_model.h"

namespace {

using namespace cnv;
using dadiannao::LayerResult;

void
expectSameCounters(const mem::Counters &got, const mem::Counters &want)
{
    EXPECT_EQ(got.nmAccesses, want.nmAccesses);
    EXPECT_EQ(got.nmConflictCycles, want.nmConflictCycles);
    EXPECT_EQ(got.gbHits, want.gbHits);
    EXPECT_EQ(got.gbMisses, want.gbMisses);
    EXPECT_EQ(got.gbEvictions, want.gbEvictions);
    EXPECT_EQ(got.dramBytes, want.dramBytes);
    EXPECT_EQ(got.dramCycles, want.dramCycles);
}

void
expectSameResult(const LayerResult &got, const LayerResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.startCycle, want.startCycle);

    EXPECT_EQ(got.activity.other, want.activity.other);
    EXPECT_EQ(got.activity.conv1, want.activity.conv1);
    EXPECT_EQ(got.activity.zero, want.activity.zero);
    EXPECT_EQ(got.activity.nonZero, want.activity.nonZero);
    EXPECT_EQ(got.activity.stall, want.activity.stall);

    EXPECT_EQ(got.energy.sbReads, want.energy.sbReads);
    EXPECT_EQ(got.energy.nmReads, want.energy.nmReads);
    EXPECT_EQ(got.energy.nmWrites, want.energy.nmWrites);
    EXPECT_EQ(got.energy.nbinReads, want.energy.nbinReads);
    EXPECT_EQ(got.energy.nbinWrites, want.energy.nbinWrites);
    EXPECT_EQ(got.energy.multOps, want.energy.multOps);
    EXPECT_EQ(got.energy.addOps, want.energy.addOps);
    EXPECT_EQ(got.energy.encoderOps, want.energy.encoderOps);
    EXPECT_EQ(got.energy.offchipBytes, want.energy.offchipBytes);

    const dadiannao::MicroTrace &gm = got.micro;
    const dadiannao::MicroTrace &wm = want.micro;
    EXPECT_EQ(gm.laneBusyCycles, wm.laneBusyCycles);
    EXPECT_EQ(gm.laneIdleCycles, wm.laneIdleCycles);
    EXPECT_EQ(gm.stalls, wm.stalls);
    EXPECT_EQ(gm.encoderBusyCycles, wm.encoderBusyCycles);
    EXPECT_EQ(gm.encoderBricks, wm.encoderBricks);
    EXPECT_EQ(gm.bbOccupancySum, wm.bbOccupancySum);
    EXPECT_EQ(gm.bbSampleCycles, wm.bbSampleCycles);
    expectSameCounters(got.mem, want.mem);
}

TEST(ConvCnvOracle, MatchesPerBrickReferenceOnRandomLayers)
{
    const int brickChoices[] = {4, 8, 16};
    const dadiannao::LaneAssignment policies[] = {
        dadiannao::LaneAssignment::ZOnly,
        dadiannao::LaneAssignment::XYZHash,
        dadiannao::LaneAssignment::WindowEven};
    const double sparsityChoices[] = {0.0, 0.35, 1.0};
    const int bankChoices[] = {1, 3, 16};
    const std::uint64_t gbChoices[] = {3, 64, 4096};
    std::mt19937_64 rng(2017);
    const auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };

    for (int c = 0; c < 600; ++c) {
        dadiannao::NodeConfig cfg;
        cfg.brickSize = cfg.lanes = brickChoices[pick(3)];
        cfg.nboutEntries = 16 + pick(113);
        cfg.laneAssignment = policies[pick(3)];
        cfg.emptyBrickCostsCycle = pick(2) == 0;

        nn::ConvParams p;
        p.groups = 1 + pick(2);
        tensor::Shape3 in{1 + pick(20), 1 + pick(20), 0};
        if (p.groups == 1) {
            in.z = 1 + pick(96);
        } else {
            const int unit = p.groups * cfg.brickSize;
            in.z = unit * (1 + pick(96 / unit));
        }
        p.stride = 1 + pick(3);
        p.pad = pick(3);
        p.fx = std::min(1 + pick(5), in.x + 2 * p.pad);
        p.fy = std::min(1 + pick(5), in.y + 2 * p.pad);
        const int parallel = cfg.parallelFilters();
        const int passes = 1 + pick(3);
        p.filters =
            p.groups * ((passes - 1) * parallel + 1 + pick(parallel));
        const int convIndex = pick(8);
        const double sparsity = sparsityChoices[pick(3)];

        // Per-brick non-zero counts at a per-case density; the last
        // brick of a column may be narrower than the brick size.
        const int bricks = (in.z + cfg.brickSize - 1) / cfg.brickSize;
        timing::CountMap counts(in.x, in.y, bricks);
        const int density = pick(5); // in quarters: 0, 1/4, ..., 1
        for (int y = 0; y < in.y; ++y) {
            for (int x = 0; x < in.x; ++x) {
                for (int b = 0; b < bricks; ++b) {
                    const int width =
                        std::min(cfg.brickSize, in.z - b * cfg.brickSize);
                    int nz = 0;
                    for (int k = 0; k < width; ++k)
                        nz += pick(4) < density ? 1 : 0;
                    counts.at(x, y, b) = static_cast<std::uint8_t>(nz);
                }
            }
        }

        const bool banked = pick(2) == 0;
        mem::Geometry geo;
        geo.banks = bankChoices[pick(3)];
        geo.gbLines = gbChoices[pick(3)];
        geo.dramBytesPerCycle = 16;

        SCOPED_TRACE(testing::Message()
                     << "case " << c << ": in " << in.x << "x" << in.y
                     << "x" << in.z << ", f " << p.fx << "x" << p.fy
                     << ", stride " << p.stride << ", pad " << p.pad
                     << ", groups " << p.groups << ", filters "
                     << p.filters << ", brick " << cfg.brickSize
                     << ", nbout " << cfg.nboutEntries << ", policy "
                     << static_cast<int>(cfg.laneAssignment)
                     << ", emptyCostsCycle " << cfg.emptyBrickCostsCycle
                     << ", sparsity " << sparsity << ", banked "
                     << banked);

        // The oracle and the model under test each own one memory
        // model of the same geometry, fed the same layer in lockstep.
        std::optional<mem::MemoryModel> wantMem, gotMem;
        if (banked) {
            wantMem.emplace(geo);
            gotMem.emplace(geo);
        }
        const auto ptr = [](std::optional<mem::MemoryModel> &m) {
            return m ? &*m : nullptr;
        };

        const LayerResult want = testsupport::referenceConvCnv2(
            cfg, p, in, counts, convIndex, sparsity, ptr(wantMem));
        const LayerResult got = timing::convCnv2(
            cfg, p, in, counts, convIndex, sparsity, ptr(gotMem));
        EXPECT_EQ(got.name, "conv(cnv2)");
        expectSameResult(got, want);
        if (banked)
            expectSameCounters(gotMem->drainLayer(), wantMem->drainLayer());

        if (sparsity == 0.0) {
            // CNV is Cnvlutin2 without weight skipping. The memory
            // pair was drained above, so both start the layer cold.
            const LayerResult again = testsupport::referenceConvCnv2(
                cfg, p, in, counts, convIndex, 0.0, ptr(wantMem));
            const LayerResult cnv =
                timing::convCnv(cfg, p, in, counts, ptr(gotMem));
            EXPECT_EQ(cnv.name, "conv(cnv)");
            expectSameResult(cnv, again);
            if (banked)
                expectSameCounters(gotMem->drainLayer(),
                                   wantMem->drainLayer());
        }
    }
}

} // namespace
