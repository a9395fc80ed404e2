#include "timing/conv_model.h"

#include <algorithm>
#include <array>
#include <vector>

#include "dadiannao/assignment.h"
#include "sim/logging.h"
#include "sim/rng.h"

namespace cnv::timing {

using dadiannao::LayerResult;
using dadiannao::NodeConfig;
using tensor::Shape3;

namespace {

/**
 * wx[x] = number of (window, filter-cell) pairs along one dimension
 * that read input coordinate x — i.e., how many windows cover x with
 * a valid (non-padding) cell.
 */
std::vector<std::uint32_t>
coverage1d(int inDim, int outDim, int f, int stride, int pad)
{
    std::vector<std::uint32_t> w(static_cast<std::size_t>(inDim), 0);
    for (int o = 0; o < outDim; ++o) {
        for (int k = 0; k < f; ++k) {
            const int x = o * stride - pad + k;
            if (x >= 0 && x < inDim)
                ++w[x];
        }
    }
    return w;
}

} // namespace

LayerResult
convBaseline(const NodeConfig &cfg, const nn::ConvParams &p,
             const Shape3 &inShape, const CountMap &counts, bool isConv1,
             mem::MemoryModel *mem)
{
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();

    LayerResult r;
    r.name = "conv";

    const auto wx = coverage1d(inShape.x, outShape.x, p.fx, p.stride, p.pad);
    const auto wy = coverage1d(inShape.y, outShape.y, p.fy, p.stride, p.pad);

    // Valid cells per window, summed over all windows (separable).
    std::uint64_t ax = 0, ay = 0;
    for (auto v : wx)
        ax += v;
    for (auto v : wy)
        ay += v;
    const std::uint64_t validCells = ax * ay;
    const std::uint64_t units = cfg.units;

    // Shallow inputs pack fetch blocks across window rows (see
    // ref/baseline_nfu.cc); blocks per window row depend only on ox.
    const bool packedRows = depthPerGroup < lanes && p.groups == 1;
    std::uint64_t packedRowBlocks = 0;
    if (packedRows) {
        for (int ox = 0; ox < outShape.x; ++ox) {
            const int x0 = ox * p.stride - p.pad;
            const int xs = std::max(x0, 0);
            const int xe = std::min(x0 + p.fx, inShape.x);
            if (xe <= xs)
                continue;
            const int s0 = xs * depthPerGroup;
            const int s1 = xe * depthPerGroup;
            packedRowBlocks += static_cast<std::uint64_t>(
                (s1 - 1) / lanes - s0 / lanes + 1);
        }
    }

    for (int g = 0; g < p.groups; ++g) {
        const int brickBase = (g * depthPerGroup) / cfg.brickSize;
        const int bricksPerCell =
            (depthPerGroup + cfg.brickSize - 1) / cfg.brickSize;
        if (p.groups > 1 && (g * depthPerGroup) % cfg.brickSize != 0)
            CNV_FATAL("group depth must be brick aligned");

        // Coverage-weighted non-zero neurons in this group's slice.
        std::uint64_t coveredNz = 0;
        for (int y = 0; y < inShape.y; ++y) {
            for (int x = 0; x < inShape.x; ++x) {
                const std::uint8_t *col = counts.column(x, y) + brickBase;
                std::uint64_t nz = 0;
                for (int b = 0; b < bricksPerCell; ++b)
                    nz += col[b];
                coveredNz += nz * wx[x] * wy[y];
            }
        }

        const std::uint64_t groupCycles = packedRows
            ? ay * packedRowBlocks
            : validCells * static_cast<std::uint64_t>(bricksPerCell);
        // Every lane slot of every cycle is an event; slots not
        // holding a covered non-zero neuron (depth tail padding or,
        // for packed rows, neighbouring-column data) count as zero.
        const std::uint64_t coveredSlots = groupCycles * lanes;
        const std::uint64_t coveredZero = coveredSlots - coveredNz;

        const int passes = (filtersPerGroup + parallel - 1) / parallel;
        for (int pass = 0; pass < passes; ++pass) {
            const int fCount =
                std::min(parallel, filtersPerGroup - pass * parallel);
            const int activeUnits =
                (fCount + cfg.filtersPerUnit - 1) / cfg.filtersPerUnit;
            const std::uint64_t passCycles = groupCycles;

            // One unit-wide NM row per cycle behind a single fetch
            // pointer: a strictly sequential stream that can never
            // conflict with itself, whatever the banking.
            if (mem)
                mem->fetchSequential(passCycles);
            r.cycles += passCycles;
            if (isConv1) {
                r.activity.conv1 += coveredSlots * units;
            } else {
                r.activity.zero += coveredZero * units;
                r.activity.nonZero += coveredNz * units;
            }
            r.energy.nmReads += passCycles;
            r.energy.nbinWrites += passCycles * lanes * units;
            r.energy.nbinReads += passCycles * lanes * units;
            r.energy.sbReads += passCycles * lanes * activeUnits;
            r.energy.multOps += passCycles * lanes * fCount;
            r.energy.addOps += passCycles * lanes * fCount;
        }
    }

    const std::uint64_t windows =
        static_cast<std::uint64_t>(outShape.x) * outShape.y;
    r.energy.nmWrites += windows * ((p.filters + lanes - 1) / lanes);
    // Lock-step broadcast keeps every lane occupied every cycle.
    r.micro.laneBusyCycles = r.cycles * static_cast<std::uint64_t>(lanes);
    return r;
}

namespace {

/**
 * Whether the weight brick a filter group applies at one (kernel
 * position, depth brick, pass) is ineffectual. A pure function of
 * the static schedule coordinates — the same answer on every call,
 * every thread and every job count — standing in for the offline
 * weight-pruning schedule Cnvlutin2 compiles per layer.
 */
bool
weightBrickIneffectual(int convIndex, int ky, int kx, int brick, int pass,
                       double sparsity)
{
    std::uint64_t h = sim::mix64(static_cast<std::uint64_t>(convIndex) + 1);
    h = sim::mix64(h ^ static_cast<std::uint64_t>(ky));
    h = sim::mix64(h ^ (static_cast<std::uint64_t>(kx) << 20));
    h = sim::mix64(h ^ (static_cast<std::uint64_t>(brick) << 40));
    h = sim::mix64(h ^ static_cast<std::uint64_t>(pass));
    // Top 53 bits as a uniform deviate in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53 < sparsity;
}

/** One valid (window, filter-cell) pair of a window group. */
struct Cell
{
    /** Non-zero counts of the cell's bricks in the layer group. */
    const std::uint8_t *counts;
    /** Filter-cell index ky * fx + kx (the weight-skip table row). */
    int tap;
    /** Lane of the cell's first brick; brick b goes to rot + b. */
    int rot;
};

/** One filter pass's lane profile over a window group. */
struct LaneProfile
{
    std::uint64_t cycles = 0;  ///< busiest lane: the group's runtime
    std::uint64_t busy = 0;    ///< lane-cycles summed over lanes
    std::uint64_t nonZero = 0; ///< effectual (neuron, weight) pairs
};

/**
 * The encoded (zero-skipping) walk shared by CNV and Cnvlutin2; CNV
 * is the walk with weightSparsity 0. Windows run in row-major groups
 * of windowsInFlight(), lanes synchronising at group boundaries.
 * Each group's cells and fetch list are gathered once and replayed
 * for every filter pass; a pass only changes which weight bricks
 * the filter group prunes, read from a per-layer-group skip table.
 */
LayerResult
convEncoded(const NodeConfig &cfg, const nn::ConvParams &p,
            const Shape3 &inShape, const CountMap &counts, int convIndex,
            double weightSparsity, mem::MemoryModel *mem)
{
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    CNV_ASSERT(lanes == cfg.brickSize, "CNV needs one lane per brick slot");
    CNV_ASSERT(lanes <= 64, "lane count above model limit");
    CNV_ASSERT(weightSparsity >= 0.0 && weightSparsity <= 1.0,
               "weight sparsity {} outside [0, 1]", weightSparsity);
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();
    const int passes = (filtersPerGroup + parallel - 1) / parallel;
    const std::uint64_t units = cfg.units;
    const int taps = p.fx * p.fy;
    // An empty activation brick, or one whose weight brick the whole
    // filter group prunes, costs one dispatcher slot to step past
    // (the NM fetch still happens) and no multiply-cycles.
    const std::uint8_t emptyCost = cfg.emptyBrickCostsCycle ? 1 : 0;
    // Without weight skipping every pass has the same lane profile.
    const int profiles = weightSparsity > 0.0 ? passes : 1;
    // Brick addresses are linear over (cell, depth brick) so the
    // banked NM's modulo interleave sees the real access pattern.
    const std::uint64_t bricksTotal = static_cast<std::uint64_t>(
        (inShape.z + cfg.brickSize - 1) / cfg.brickSize);
    const int inFlight = cfg.windowsInFlight();
    const std::int64_t totalWindows =
        static_cast<std::int64_t>(outShape.x) * outShape.y;

    LayerResult r;
    std::vector<Cell> cells;
    std::vector<mem::Access> fetches;
    std::vector<std::uint8_t> skip;
    // Lane time unrolled past the lane count: brick b of a cell adds
    // to slot rot + b, and slot k folds into lane k % lanes.
    std::vector<std::uint64_t> slots;

    for (int g = 0; g < p.groups; ++g) {
        if (p.groups > 1 && (g * depthPerGroup) % cfg.brickSize != 0)
            CNV_FATAL("group depth must be brick aligned");
        const int brickBase = (g * depthPerGroup) / cfg.brickSize;
        const int bricksPerCell =
            (depthPerGroup + cfg.brickSize - 1) / cfg.brickSize;
        const std::size_t bpc = static_cast<std::size_t>(bricksPerCell);
        slots.assign(static_cast<std::size_t>(lanes) + bpc, 0);

        // Weight-skip table [pass][ky][kx][brick]: 0xff where the
        // pass's filter group prunes the weight brick, so a brick's
        // effectual count is a branch-free `nz & ~skip`.
        skip.assign(static_cast<std::size_t>(profiles) * taps * bpc, 0);
        if (weightSparsity > 0.0) {
            std::uint8_t *s = skip.data();
            for (int pass = 0; pass < profiles; ++pass)
                for (int ky = 0; ky < p.fy; ++ky)
                    for (int kx = 0; kx < p.fx; ++kx)
                        for (int b = 0; b < bricksPerCell; ++b) {
                            const bool pruned = weightBrickIneffectual(
                                convIndex, ky, kx, brickBase + b, pass,
                                weightSparsity);
                            *s++ = pruned ? 0xff : 0;
                        }
        }

        const auto laneProfile = [&](int pass) {
            const std::uint8_t *passSkip =
                skip.data() + static_cast<std::size_t>(pass) * taps * bpc;
            std::fill(slots.begin(), slots.end(), 0);
            LaneProfile lp;
            for (const Cell &c : cells) {
                const std::uint8_t *sk = passSkip + c.tap * bpc;
                std::uint64_t *slot = slots.data() + c.rot;
                for (std::size_t b = 0; b < bpc; ++b) {
                    const auto live =
                        static_cast<std::uint8_t>(c.counts[b] & ~sk[b]);
                    slot[b] += std::max(live, emptyCost);
                    lp.nonZero += live;
                }
            }
            std::array<std::uint64_t, 64> laneTime{};
            int lane = 0;
            for (const std::uint64_t t : slots) {
                laneTime[lane] += t;
                if (++lane == lanes)
                    lane = 0;
            }
            for (int l = 0; l < lanes; ++l) {
                lp.cycles = std::max(lp.cycles, laneTime[l]);
                lp.busy += laneTime[l];
            }
            return lp;
        };

        for (std::int64_t w0 = 0; w0 < totalWindows; w0 += inFlight) {
            const int batch = static_cast<int>(
                std::min<std::int64_t>(inFlight, totalWindows - w0));

            // Gather the group's valid cells once. Under every lane
            // assignment a cell's bricks take consecutive lanes
            // from its first brick's, so laneOf runs once per cell.
            cells.clear();
            fetches.clear();
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
                        const int rot =
                            dadiannao::laneOf(cfg.laneAssignment, ix, iy,
                                              brickBase, windowSeq, lanes);
                        windowSeq += bricksPerCell;
                        cells.push_back({counts.column(ix, iy) + brickBase,
                                         ky * p.fx + kx, rot});
                        if (!mem)
                            continue;
                        const std::uint64_t base =
                            (static_cast<std::uint64_t>(iy) * inShape.x +
                             ix) * bricksTotal +
                            static_cast<std::uint64_t>(brickBase);
                        int lane = rot;
                        for (int b = 0; b < bricksPerCell; ++b) {
                            fetches.push_back({lane, base + b});
                            if (++lane == lanes)
                                lane = 0;
                        }
                    }
                }
            }
            const std::uint64_t nmReads = cells.size() * bpc;

            LaneProfile lp;
            for (int pass = 0; pass < passes; ++pass) {
                if (pass < profiles)
                    lp = laneProfile(pass);
                const int fCount = std::min(
                    parallel, filtersPerGroup - pass * parallel);
                const int activeUnits =
                    (fCount + cfg.filtersPerUnit - 1) /
                    cfg.filtersPerUnit;

                r.cycles += lp.cycles;
                r.activity.nonZero += lp.nonZero * units;
                r.activity.stall += (lp.cycles * lanes - lp.nonZero) * units;
                r.energy.nmReads += nmReads;
                r.energy.nbinWrites += lp.nonZero * units;
                r.energy.nbinReads += lp.nonZero * units;
                r.energy.sbReads += lp.nonZero * activeUnits;
                r.energy.multOps += lp.nonZero * fCount;
                r.energy.addOps += lp.nonZero * fCount;
                // Mirror the cycle-level model's per-pass lane
                // accounting (lane time includes empty-brick cycles).
                r.micro.laneBusyCycles += lp.busy;
                const std::uint64_t barrier =
                    lp.cycles * static_cast<std::uint64_t>(lanes) - lp.busy;
                r.micro.laneIdleCycles += barrier;
                r.micro.stalls[sim::StallReason::WindowBarrier] +=
                    barrier;

                if (mem) {
                    // Each pass re-fetches the group's bricks (the
                    // per-pass NM reads above); bank conflicts and
                    // exposed global-buffer fills stretch the group
                    // with every lane of every unit idle.
                    const mem::GroupCost gc =
                        mem->fetchGroup(fetches, lp.cycles);
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

} // namespace

LayerResult
convCnv(const NodeConfig &cfg, const nn::ConvParams &p,
        const Shape3 &inShape, const CountMap &counts,
        mem::MemoryModel *mem)
{
    LayerResult r = convEncoded(cfg, p, inShape, counts, 0, 0.0, mem);
    r.name = "conv(cnv)";
    return r;
}

LayerResult
convCnv2(const NodeConfig &cfg, const nn::ConvParams &p,
         const Shape3 &inShape, const CountMap &counts, int convIndex,
         double weightSparsity, mem::MemoryModel *mem)
{
    LayerResult r = convEncoded(cfg, p, inShape, counts, convIndex,
                                weightSparsity, mem);
    r.name = "conv(cnv2)";
    return r;
}

} // namespace cnv::timing
