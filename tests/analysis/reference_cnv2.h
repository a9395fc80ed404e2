/**
 * @file
 * Reference Cnvlutin2 conv timing, the oracle timing::convCnv and
 * timing::convCnv2 are differentially tested against. It is the
 * straightforward per-pass, per-brick walk: every filter pass
 * re-walks every window group, asks dadiannao::laneOf for the lane of
 * each brick, hashes each (tap, brick, pass) weight brick afresh,
 * and rebuilds the group's fetch list, one single-brick run per
 * brick, before handing it to the memory model. It shares no code
 * with the production walker apart from dadiannao::laneOf and the
 * memory model it feeds; the weight-brick hash is a private copy, so
 * a change to either side's schedule shows up as a mismatch.
 */

#ifndef CNV_TESTS_ANALYSIS_REFERENCE_CNV2_H
#define CNV_TESTS_ANALYSIS_REFERENCE_CNV2_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dadiannao/assignment.h"
#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "mem/memory_model.h"
#include "nn/layer.h"
#include "timing/conv_model.h"

namespace cnv::testsupport {

/** splitmix64 finalizer (a copy of the production hash). */
inline std::uint64_t
referenceMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Whether the weight brick at (ky, kx, brick, pass) is pruned. */
inline bool
referenceWeightBrickIneffectual(int convIndex, int ky, int kx, int brick,
                                int pass, double sparsity)
{
    if (sparsity <= 0.0)
        return false;
    std::uint64_t h =
        referenceMix64(static_cast<std::uint64_t>(convIndex) + 1);
    h = referenceMix64(h ^ static_cast<std::uint64_t>(ky));
    h = referenceMix64(h ^ (static_cast<std::uint64_t>(kx) << 20));
    h = referenceMix64(h ^ (static_cast<std::uint64_t>(brick) << 40));
    h = referenceMix64(h ^ static_cast<std::uint64_t>(pass));
    return static_cast<double>(h >> 11) * 0x1.0p-53 < sparsity;
}

/**
 * Per-pass, per-brick Cnvlutin2 timing. With weightSparsity == 0 it
 * is also the CNV oracle (only LayerResult::name differs).
 */
inline dadiannao::LayerResult
referenceConvCnv2(const dadiannao::NodeConfig &cfg, const nn::ConvParams &p,
                  const tensor::Shape3 &inShape,
                  const timing::CountMap &counts, int convIndex,
                  double weightSparsity, mem::MemoryModel *mem)
{
    const tensor::Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();
    const std::uint64_t units = cfg.units;

    dadiannao::LayerResult r;
    r.name = "conv(cnv2)";

    for (int g = 0; g < p.groups; ++g) {
        const int brickBase = (g * depthPerGroup) / cfg.brickSize;
        const int bricksPerCell =
            (depthPerGroup + cfg.brickSize - 1) / cfg.brickSize;
        const int passes = (filtersPerGroup + parallel - 1) / parallel;

        std::array<std::uint64_t, 64> laneTime{};
        const std::uint64_t bricksTotal = static_cast<std::uint64_t>(
            (inShape.z + cfg.brickSize - 1) / cfg.brickSize);
        std::vector<mem::Run> fetches;

        const int inFlight = cfg.windowsInFlight();
        const std::int64_t totalWindows =
            static_cast<std::int64_t>(outShape.x) * outShape.y;

        for (std::int64_t w0 = 0; w0 < totalWindows; w0 += inFlight) {
            const int batch = static_cast<int>(
                std::min<std::int64_t>(inFlight, totalWindows - w0));

            for (int pass = 0; pass < passes; ++pass) {
                const int fCount = std::min(
                    parallel, filtersPerGroup - pass * parallel);
                const int activeUnits =
                    (fCount + cfg.filtersPerUnit - 1) /
                    cfg.filtersPerUnit;

                laneTime.fill(0);
                fetches.clear();
                std::uint64_t nzPass = 0;
                std::uint64_t cells = 0;
                int windowSeq = 0;
                for (int w = 0; w < batch; ++w) {
                    const int ox = static_cast<int>((w0 + w) % outShape.x);
                    const int oy = static_cast<int>((w0 + w) / outShape.x);
                    const int x0 = ox * p.stride - p.pad;
                    const int y0 = oy * p.stride - p.pad;
                    for (int ky = 0; ky < p.fy; ++ky) {
                        const int iy = y0 + ky;
                        if (iy < 0 || iy >= inShape.y)
                            continue;
                        for (int kx = 0; kx < p.fx; ++kx) {
                            const int ix = x0 + kx;
                            if (ix < 0 || ix >= inShape.x)
                                continue;
                            ++cells;
                            for (int b = 0; b < bricksPerCell; ++b) {
                                const int lane = dadiannao::laneOf(
                                    cfg.laneAssignment, ix, iy,
                                    brickBase + b, windowSeq++, lanes);
                                if (mem)
                                    fetches.push_back(
                                        {(static_cast<std::uint64_t>(iy) *
                                              inShape.x +
                                          ix) * bricksTotal +
                                             static_cast<std::uint64_t>(
                                                 brickBase + b),
                                         lane, 1});
                                const std::uint32_t nz =
                                    counts.at(ix, iy, brickBase + b);
                                std::uint64_t cost;
                                if (nz == 0 ||
                                    referenceWeightBrickIneffectual(
                                        convIndex, ky, kx, brickBase + b,
                                        pass, weightSparsity)) {
                                    cost = cfg.emptyBrickCostsCycle ? 1 : 0;
                                } else {
                                    cost = nz;
                                    nzPass += nz;
                                }
                                laneTime[lane] += cost;
                            }
                        }
                    }
                }

                std::uint64_t groupCycles = 0;
                std::uint64_t laneSum = 0;
                for (int l = 0; l < lanes; ++l) {
                    groupCycles = std::max(groupCycles, laneTime[l]);
                    laneSum += laneTime[l];
                }

                r.cycles += groupCycles;
                r.activity.nonZero += nzPass * units;
                r.activity.stall +=
                    (groupCycles * lanes - nzPass) * units;
                r.energy.nmReads +=
                    cells * static_cast<std::uint64_t>(bricksPerCell);
                r.energy.nbinWrites += nzPass * units;
                r.energy.nbinReads += nzPass * units;
                r.energy.sbReads += nzPass * activeUnits;
                r.energy.multOps += nzPass * fCount;
                r.energy.addOps += nzPass * fCount;
                r.micro.laneBusyCycles += laneSum;
                const std::uint64_t barrier =
                    groupCycles * static_cast<std::uint64_t>(lanes) -
                    laneSum;
                r.micro.laneIdleCycles += barrier;
                r.micro.stalls[sim::StallReason::WindowBarrier] +=
                    barrier;

                if (mem) {
                    const mem::GroupCost gc = mem->chargeGroup(
                        mem->replayGroup(fetches, lanes), groupCycles);
                    const std::uint64_t extra =
                        gc.conflictCycles + gc.gbFillCycles;
                    r.cycles += extra;
                    r.activity.stall += extra * lanes * units;
                    r.micro.laneIdleCycles += extra * lanes;
                    r.micro.stalls[sim::StallReason::NmBankConflict] +=
                        gc.conflictCycles * lanes;
                    r.micro.stalls[sim::StallReason::GbMiss] +=
                        gc.gbFillCycles * lanes;
                }
            }
        }
    }

    const std::uint64_t windows =
        static_cast<std::uint64_t>(outShape.x) * outShape.y;
    r.energy.nmWrites += windows * ((p.filters + lanes - 1) / lanes);
    r.energy.encoderOps += windows * static_cast<std::uint64_t>(p.filters);
    r.micro.encoderBusyCycles =
        windows * static_cast<std::uint64_t>(p.filters);
    r.micro.encoderBricks =
        windows * static_cast<std::uint64_t>(
                      (p.filters + cfg.brickSize - 1) / cfg.brickSize);
    return r;
}

} // namespace cnv::testsupport

#endif // CNV_TESTS_ANALYSIS_REFERENCE_CNV2_H
