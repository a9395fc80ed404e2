#include "timing/conv_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/simd.h"
#include "core/splitmix.h"
#include "dadiannao/assignment.h"
#include "sim/logging.h"

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
    std::uint64_t h = core::mix64(static_cast<std::uint64_t>(convIndex) + 1);
    h = core::mix64(h ^ static_cast<std::uint64_t>(ky));
    h = core::mix64(h ^ (static_cast<std::uint64_t>(kx) << 20));
    h = core::mix64(h ^ (static_cast<std::uint64_t>(brick) << 40));
    h = core::mix64(h ^ static_cast<std::uint64_t>(pass));
    // Top 53 bits as a uniform deviate in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53 < sparsity;
}

/** Where one run of count-map bricks lands in the stream. */
struct Segment
{
    std::size_t pos; ///< first stream position
    std::size_t src; ///< count-map offset of its first brick
    std::size_t tap; ///< skip-table offset: tap * bricks per cell + brick
    std::size_t len; ///< bricks
};

/** A stream position no brick runs at: above any brick's count. */
constexpr std::uint8_t kNoBrick = 0x80;

/** One filter pass's lane profile over a window group, or a sum of them. */
struct LaneProfile
{
    std::uint64_t cycles = 0;  ///< busiest lane: the group's runtime
    std::uint64_t busy = 0;    ///< lane-cycles summed over lanes
    std::uint64_t nonZero = 0; ///< effectual (neuron, weight) pairs
};

/** One sink's state over convEncoded's walk. */
struct SinkWalk
{
    int skipPasses = 0;             ///< passes folded with weight skips
    std::vector<std::uint8_t> skip; ///< layer group's weight-skip table
    LaneProfile lp, sum;            ///< this pass's; summed over passes
    std::uint64_t sbReads = 0, macs = 0;  ///< nonZero x units, x filters
    std::uint64_t conflict = 0, fill = 0; ///< bank-conflict, GB-fill cycles
};

/** The profile of per-lane cycle sums time[0, lanes). */
LaneProfile
profileOf(const std::array<std::uint32_t, 64> &time, int lanes,
          std::uint64_t nonZero)
{
    std::uint32_t cycles = 0;
    std::uint64_t busy = 0;
    for (int l = 0; l < lanes; ++l) {
        cycles = std::max(cycles, time[l]);
        busy += time[l];
    }
    return {cycles, busy, nonZero};
}

/**
 * Lane profiles of window groups read off per-row prefix sums, for a
 * walk no sink of which skips weight bricks. Brick b of cell x in
 * input row y runs on lane (phi + b + psi) % lanes, where phi is
 * laneOf(x, y, x * bpc); psi is cursor - xa * bpc if the lanes follow
 * the cursor (followsCursor; xa the window row's first column, cursor
 * the bricks its window group fetched before it), else 0. So entry x of
 * row y holds the costs of the cells left of x summed per lane (lane
 * phi + b), stored at l and again at l + lanes so that a rotation is
 * an offset load, and their non-zero count. A window row [xa, xb) adds
 * entry xb less entry xa, read from offset lanes - psi, to its group's
 * kWidth >= lanes lane sums, kept in registers (core::simd::LaneSums)
 * until its busiest lane and lane total are taken. A ring holds the
 * input rows one window group reads, each built on first use.
 */
template <int kWidth>
class RowPrefixes
{
  public:
    RowPrefixes(const NodeConfig &cfg, const nn::ConvParams &p,
                const Shape3 &inShape, const CountMap &counts,
                int bricksPerCell, std::int64_t groupWindows)
        : cfg_(cfg), p_(p), inShape_(inShape),
          outX_(p.outputShape(inShape).x),
          windows_(std::int64_t{outX_} * p.outputShape(inShape).y),
          groupWindows_(groupWindows), counts_(counts),
          bpc_(static_cast<std::size_t>(bricksPerCell)),
          depth_(static_cast<std::size_t>(counts.shape().z)),
          lanes_(static_cast<std::size_t>(cfg.lanes)),
          // A read spans kWidth entries from offset lanes - psi.
          entry_(lanes_ + kWidth),
          width_(static_cast<std::size_t>(inShape.x) + 1),
          // The rows from a group's first output row oy to its last,
          // oy': [oy * stride - pad, oy' * stride - pad + fy).
          ringRow_(std::bit_ceil(static_cast<std::size_t>(
                       std::min<std::int64_t>(
                           inShape.y,
                           ((groupWindows - 1) / outX_ + 1) * p.stride +
                               p.fy))),
                   -1),
          cost_(ringRow_.size() * width_ * entry_),
          nonZero_(ringRow_.size() * width_)
    {}

    /**
     * convEncoded's route when no sink skips weight bricks: every pass
     * has one profile, returned summed over the conv groups; a banked
     * replay still takes each window group's cycles and runs, `passes`
     * times. Adds the bricks one pass fetches to `fetched`.
     */
    [[gnu::noinline]] LaneProfile
    walk(std::span<const EncodedSink> sinks, mem::MemoryModel *replayer,
         int passes, std::vector<SinkWalk> &walks, std::uint64_t &fetched)
    {
        const int stride = p_.stride, pad = p_.pad, fy = p_.fy;
        const std::size_t bpc = bpc_, lanes = lanes_, entry = entry_;
        const std::size_t ringMask = ringRow_.size() - 1;
        // psi is 0 unless lanes follow the cursor.
        const bool follows = dadiannao::followsCursor(cfg_.laneAssignment);
        const bool pow2 = (lanes & (lanes - 1)) == 0;
        const auto wrap = [=](std::size_t v) {
            return pow2 ? v & (lanes - 1) : v % lanes;
        };
        std::vector<mem::Run> runs;
        LaneProfile total;
        for (int g = 0; g < p_.groups; ++g) {
            brickBase_ = g * static_cast<int>(bpc);
            std::fill(ringRow_.begin(), ringRow_.end(), -1);
            int ox = 0, oy = 0; // the next window
            for (std::int64_t w = 0; w < windows_; w += groupWindows_) {
                const std::int64_t n = std::min(groupWindows_, windows_ - w);
                // Calls come first, as they would spill live lane sums:
                // build the rows from the group's first window to its
                // last (in output row oyEnd), and list its fetch runs.
                int oyEnd = oy;
                for (std::int64_t x = ox + n - 1; x >= outX_; x -= outX_)
                    ++oyEnd;
                for (int iy = std::max(0, oy * stride - pad);
                     iy < std::min(oyEnd * stride - pad + fy, inShape_.y);
                     ++iy)
                    if (ringRow_[iy & ringMask] != iy)
                        build(iy & ringMask, iy);
                runs.clear();
                if (replayer) {
                    int x = ox, y = oy;
                    forEachRow(n, x, y, [&](int xa, int xb, int iy,
                                            std::size_t cursor) {
                        addRuns(runs, xa, xb, iy, cursor);
                    });
                }
                core::simd::LaneSums<kWidth> time;
                std::uint64_t nonZero = 0;
                fetched += forEachRow(n, ox, oy, [&](int xa, int xb, int iy,
                                                     std::size_t cursor) {
                    const std::size_t slot = iy & ringMask;
                    // Lane l reads entry position l + lanes - psi.
                    const std::size_t psi =
                        follows ? wrap(cursor + lanes - wrap(xa * bpc)) : 0;
                    const std::uint16_t *lo = cost_.data() +
                        (slot * width_ + xa) * entry + lanes - psi;
                    time.addWrappedDiffs(lo + (xb - xa) * entry, lo);
                    const std::uint32_t *nz = nonZero_.data() + slot * width_;
                    nonZero += static_cast<std::uint32_t>(nz[xb] - nz[xa]);
                });
                const std::uint32_t cycles = time.max(cfg_.lanes);
                total.cycles += cycles;
                total.busy += time.sum(cfg_.lanes);
                total.nonZero += nonZero;
                // One replay per pass serves every banked sink.
                for (int pass = 0; replayer && pass < passes; ++pass) {
                    const mem::GroupReplay replay =
                        replayer->replayGroup(runs, cfg_.lanes);
                    for (std::size_t i = 0; i < sinks.size(); ++i) {
                        if (!sinks[i].mem)
                            continue;
                        const mem::GroupCost gc =
                            sinks[i].mem->chargeGroup(replay, cycles);
                        walks[i].conflict += gc.conflictCycles;
                        walks[i].fill += gc.gbFillCycles;
                    }
                }
            }
        }
        return total;
    }

  private:
    /**
     * f(xa, xb, iy, cursor) for each window row, cells [xa, xb) of input
     * row iy, of the n windows from output (ox, oy) on, which it moves
     * past them; `cursor` bricks of them come first. Returns their bricks.
     */
    template <typename F>
    std::size_t
    forEachRow(std::int64_t n, int &ox, int &oy, F &&f) const
    {
        const int stride = p_.stride, pad = p_.pad, fx = p_.fx, fy = p_.fy;
        const int inX = inShape_.x, inY = inShape_.y;
        std::size_t cursor = 0;
        for (std::int64_t w = 0; w < n; ++w) {
            const int x0 = ox * stride - pad;
            const int y0 = oy * stride - pad;
            if (++ox == outX_) {
                ox = 0;
                ++oy;
            }
            const int xa = std::max(0, x0);
            const int xb = std::min(x0 + fx, inX);
            for (int iy = std::max(0, y0);
                 xa < xb && iy < std::min(y0 + fy, inY); ++iy) {
                f(xa, xb, iy, cursor);
                cursor += static_cast<std::size_t>(xb - xa) * bpc_;
            }
        }
        return cursor;
    }

    /** One fetch run per cell of window row [xa, xb) of row iy. */
    [[gnu::noinline]] void
    addRuns(std::vector<mem::Run> &runs, int xa, int xb, int iy,
            std::size_t cursor) const
    {
        auto src = counts_.index(xa, iy, brickBase_);
        for (int x = xa; x < xb; ++x, src += depth_, cursor += bpc_)
            runs.push_back({src,
                            dadiannao::laneOf(cfg_.laneAssignment, x, iy,
                                              brickBase_,
                                              static_cast<int>(cursor),
                                              cfg_.lanes),
                            static_cast<int>(bpc_)});
    }

    /** Fill ring slot `slot` with row iy's prefix sums. */
    [[gnu::noinline]] void
    build(std::size_t slot, int iy)
    {
        ringRow_[slot] = iy;
        const std::size_t bpc = bpc_, lanes = lanes_, entry = entry_;
        std::uint16_t *cost = cost_.data() + slot * width_ * entry;
        std::uint32_t *nz = nonZero_.data() + slot * width_;
        std::fill_n(cost, width_ * entry, 0);
        nz[0] = 0;
        const std::uint8_t emptyCost = cfg_.emptyBrickCostsCycle ? 1 : 0;
        // Add each cell's brick costs into the entry after it, lane l
        // at l or l + lanes, then fold the halves and sum the entries
        // along the row. The passes are apart so that the sums' vector
        // loads never wait on the adds' stores.
        const std::uint8_t *src = counts_.column(0, iy) + brickBase_;
        for (int x = 0; x < inShape_.x; ++x, src += depth_) {
            std::uint16_t *cell =
                cost + (static_cast<std::size_t>(x) + 1) * entry;
            // Brick b goes to position phi + b % lanes: lane
            // (phi + b) % lanes, below 2 x lanes.
            std::uint16_t *at = cell + dadiannao::laneOf(
                cfg_.laneAssignment, x, iy, brickBase_,
                x * static_cast<int>(bpc), cfg_.lanes);
            std::uint32_t cellNz = 0;
            for (std::size_t b0 = 0; b0 < bpc; b0 += lanes) {
                const std::uint8_t *chunk = src + b0;
                for (std::size_t i = 0; i < std::min(lanes, bpc - b0); ++i) {
                    at[i] = static_cast<std::uint16_t>(
                        at[i] + std::max(chunk[i], emptyCost));
                    cellNz += chunk[i];
                }
            }
            nz[x + 1] = nz[x] + cellNz;
        }
        for (std::size_t x = 1; x < width_; ++x) {
            std::uint16_t *e = cost + x * entry;
            const std::uint16_t *prev = e - entry;
            for (std::size_t l = 0; l < lanes; ++l) {
                const auto sum =
                    static_cast<std::uint16_t>(e[l] + e[l + lanes] + prev[l]);
                e[l] = e[l + lanes] = sum;
            }
        }
    }

    const NodeConfig &cfg_;
    const nn::ConvParams &p_;
    const Shape3 inShape_;
    const int outX_;
    /** Windows in a conv group, and in each of its window groups. */
    const std::int64_t windows_, groupWindows_;
    const CountMap &counts_;
    const std::size_t bpc_, depth_, lanes_;
    const std::size_t entry_;  ///< u16 per prefix entry, 2 x lanes used
    const std::size_t width_;  ///< entries per row: input width + 1
    std::vector<int> ringRow_; ///< input row each slot holds, or -1
    std::vector<std::uint16_t> cost_;
    std::vector<std::uint32_t> nonZero_;
    int brickBase_ = 0;
};

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
    // A column's coverage (at most fx) fits a byte, and a row of
    // counts dotted with it fits 32 bits.
    const auto depth = static_cast<std::size_t>(counts.shape().z);
    CNV_ASSERT(p.fx <= UINT8_MAX && wx.size() * depth <= UINT16_MAX,
               "input row above the model limit");

    // Valid cells per window, summed over all windows (separable).
    const std::uint64_t ax = std::accumulate(wx.begin(), wx.end(), 0ull);
    const std::uint64_t ay = std::accumulate(wy.begin(), wy.end(), 0ull);
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

        // Coverage-weighted non-zero neurons in this group's slice:
        // each input row's counts dotted with their columns' coverage.
        std::vector<std::uint8_t> weight(wx.size() * depth, 0);
        for (std::size_t x = 0; x < wx.size(); ++x)
            std::fill_n(weight.data() + x * depth + brickBase,
                        bricksPerCell, static_cast<std::uint8_t>(wx[x]));
        std::uint64_t coveredNz = 0;
        for (int y = 0; y < inShape.y; ++y)
            coveredNz += std::uint64_t{wy[y]} *
                std::inner_product(weight.begin(), weight.end(),
                                   counts.column(0, y), std::uint32_t{0});

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

            // One unit-wide NM row per cycle behind a single fetch
            // pointer: a strictly sequential stream that can never
            // conflict with itself, whatever the banking.
            if (mem)
                mem->fetchSequential(groupCycles);
            r.cycles += groupCycles;
            if (isConv1) {
                r.activity.conv1 += coveredSlots * units;
            } else {
                r.activity.zero += coveredZero * units;
                r.activity.nonZero += coveredNz * units;
            }
            r.energy.nmReads += groupCycles;
            r.energy.nbinWrites += groupCycles * lanes * units;
            r.energy.nbinReads += groupCycles * lanes * units;
            r.energy.sbReads += groupCycles * lanes * activeUnits;
            r.energy.multOps += groupCycles * lanes * fCount;
            r.energy.addOps += groupCycles * lanes * fCount;
        }
    }

    const std::uint64_t windows =
        static_cast<std::uint64_t>(outShape.x) * outShape.y;
    r.energy.nmWrites += windows * ((p.filters + lanes - 1) / lanes);
    // Lock-step broadcast keeps every lane occupied every cycle.
    r.micro.laneBusyCycles = r.cycles * static_cast<std::uint64_t>(lanes);
    return r;
}

std::vector<LayerResult>
convEncoded(const NodeConfig &cfg, const nn::ConvParams &p,
            const Shape3 &inShape, const CountMap &counts, int convIndex,
            std::span<const EncodedSink> sinks)
{
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    CNV_ASSERT(lanes == cfg.brickSize, "CNV needs one lane per brick slot");
    CNV_ASSERT(lanes <= 64, "lane count above model limit");
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();
    const int passes = (filtersPerGroup + parallel - 1) / parallel;
    // The filters of pass `pass`, and the SB units `f` filters keep busy.
    const auto passFilters = [&](int pass) {
        return std::min(parallel, filtersPerGroup - pass * parallel);
    };
    const auto activeUnitsOf = [&](int f) {
        return (f + cfg.filtersPerUnit - 1) / cfg.filtersPerUnit;
    };
    const std::uint64_t units = cfg.units;
    const int taps = p.fx * p.fy;
    // An empty activation brick, or one whose weight brick the whole
    // filter group prunes, costs one dispatcher slot to step past
    // (the NM fetch still happens) and no multiply-cycles.
    const std::uint8_t emptyCost = cfg.emptyBrickCostsCycle ? 1 : 0;
    const auto wideLanes = static_cast<std::uint64_t>(lanes);
    const int inFlight = cfg.windowsInFlight();
    const std::int64_t totalWindows =
        static_cast<std::int64_t>(outShape.x) * outShape.y;

    // The first banked sink replays each group's fetches through its
    // GB and banks; every banked sink is charged from that replay.
    mem::MemoryModel *replayer = nullptr;
    std::vector<SinkWalk> walks(sinks.size());
    bool gather = false; // some sink skips weight bricks
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        const EncodedSink &s = sinks[i];
        CNV_ASSERT(s.weightSparsity >= 0.0 && s.weightSparsity <= 1.0,
                   "weight sparsity {} outside [0, 1]", s.weightSparsity);
        replayer = replayer ? replayer : s.mem;
        CNV_ASSERT(!s.mem || s.mem->geometry() == replayer->geometry(),
                   "the sinks of one walk need one memory geometry");
        // Without weight skipping every pass has the same profile.
        walks[i].skipPasses = s.weightSparsity > 0.0 ? passes : 0;
        gather = gather || walks[i].skipPasses > 0;
    }

    const int bricksPerCell =
        (depthPerGroup + cfg.brickSize - 1) / cfg.brickSize;
    const std::size_t bpc = static_cast<std::size_t>(bricksPerCell);
    const std::size_t passTable = static_cast<std::size_t>(taps) * bpc;
    const auto depth = static_cast<std::size_t>(counts.shape().z);
    std::uint64_t nmReads = 0; // bricks fetched, once per pass
    // A gathered window group is one stream of brick counts, position
    // j on lane j % lanes, summed in blocks of 64 when the lane count
    // divides 64. A cell spans at most `rows` rows of the stream, a
    // row holds at most 64 x 64 non-zeros, and padding adds at most 63
    // rows: 32-bit sums hold a group under the bound below.
    const std::size_t rows = (2 * wideLanes + bpc - 2) / wideLanes;
    const std::int64_t groupWindows =
        std::min<std::int64_t>(inFlight, totalWindows);
    CNV_ASSERT(groupWindows * taps * static_cast<std::int64_t>(rows) <
                   (1 << 19),
               "window group above the model limit");
    // A brick costs at most `lanes` cycles, and a lane takes at most
    // ceil(bpc / lanes) bricks of a cell: under this bound a window
    // row's lane sums are exact as differences of 16-bit prefix sums.
    CNV_ASSERT(p.fx * static_cast<std::int64_t>((bpc + wideLanes - 1) /
                                                wideLanes * wideLanes) <=
                   UINT16_MAX,
               "window row above the model limit");
    const std::size_t bpcLane = bpc % wideLanes;
    const std::size_t block = 64 % wideLanes == 0 ? 64 : wideLanes;
    std::vector<Segment> segs;
    std::vector<mem::Run> runs;
    // A sink without weight skipping folds against `noSkips`.
    std::vector<std::uint8_t> stream, skips, noSkips;
    if (p.groups > 1 && depthPerGroup % cfg.brickSize != 0)
        CNV_FATAL("group depth must be brick aligned");
    // A walk without weight skipping reads prefix sums instead, and
    // each of its passes adds the same profile to every sink.
    if (!gather) {
        const LaneProfile lp = lanes <= core::simd::kDiffLanes
            ? RowPrefixes<core::simd::kDiffLanes>(cfg, p, inShape, counts,
                                                  bricksPerCell, groupWindows)
                  .walk(sinks, replayer, passes, walks, nmReads)
            : RowPrefixes<64>(cfg, p, inShape, counts, bricksPerCell,
                              groupWindows)
                  .walk(sinks, replayer, passes, walks, nmReads);
        for (int pass = 0; pass < passes; ++pass)
            for (SinkWalk &sw : walks) {
                sw.sum.cycles += lp.cycles;
                sw.sum.busy += lp.busy;
                sw.sum.nonZero += lp.nonZero;
                sw.sbReads += lp.nonZero * activeUnitsOf(passFilters(pass));
                sw.macs += lp.nonZero * passFilters(pass);
            }
    } else {
        for (int g = 0; g < p.groups; ++g) {
            const int brickBase = (g * depthPerGroup) / cfg.brickSize;
            // Weight-skip tables [pass][tap][brick]: 0xff where the
            // pass's filter group prunes the weight brick, so a brick's
            // effectual count is a branch-free `nz & ~skip`.
            for (std::size_t i = 0; i < sinks.size(); ++i) {
                std::vector<std::uint8_t> &skip = walks[i].skip;
                skip.resize(walks[i].skipPasses * passTable);
                std::uint8_t *s = skip.data();
                for (int pass = 0; pass < walks[i].skipPasses; ++pass)
                    for (int tap = 0; tap < taps; ++tap)
                        for (int b = 0; b < bricksPerCell; ++b)
                            *s++ = weightBrickIneffectual(
                                       convIndex, tap / p.fx, tap % p.fx,
                                       brickBase + b, pass,
                                       sinks[i].weightSparsity)
                                ? 0xff : 0;
            }

            // Position j adds max(nz & ~skip, emptyCost) to sum j % block
            // (a kNoBrick one adds nothing, whatever its skip byte), and
            // the sums fold to lanes.
            const auto laneProfile = [&](const std::uint8_t *skip) {
                std::array<std::uint32_t, 64> time{};
                std::uint32_t nonZero = 0;
                for (std::size_t j = 0; j < stream.size(); j += block)
                    for (std::size_t k = 0; k < block; ++k) {
                        const std::uint8_t b = stream[j + k];
                        const auto nz = static_cast<std::uint8_t>(
                            b & ~skip[j + k] & ~kNoBrick);
                        time[k] += std::max(
                            nz, b == kNoBrick ? std::uint8_t{0} : emptyCost);
                        nonZero += nz;
                    }
                for (std::size_t w = block / 2; w >= wideLanes; w /= 2)
                    for (std::size_t k = 0; k < w; ++k)
                        time[k] += time[k + w];
                return profileOf(time, lanes, nonZero);
            };

            for (std::int64_t w0 = 0; w0 < totalWindows; w0 += inFlight) {
                // Gather the group's cells once. A cell starts at the next
                // position on its first brick's lane. A window row is one
                // segment while no cell skips a position (WindowEven, one
                // conv group). Each cell is its own GB run: a run takes the
                // one-compare path only if all its bricks are resident, and
                // a sliding window leaves most cells of a row resident.
                segs.clear();
                runs.clear();
                std::size_t cursor = 0; // the stream's length
                std::size_t lane = 0;   // cursor % lanes, without a divide
                for (auto w = static_cast<int>(w0);
                     w < std::min<std::int64_t>(w0 + inFlight, totalWindows);
                     ++w) {
                    const int x0 = w % outShape.x * p.stride - p.pad;
                    const int y0 = w / outShape.x * p.stride - p.pad;
                    const int kx0 = std::max(0, -x0);
                    const int kx1 = std::min(p.fx, inShape.x - x0);
                    for (int ky = std::max(0, -y0);
                         ky < std::min(p.fy, inShape.y - y0); ++ky) {
                        const int iy = y0 + ky;
                        auto src = (static_cast<std::size_t>(iy) * inShape.x +
                                    x0 + kx0) * depth + brickBase;
                        auto tap =
                            static_cast<std::size_t>(ky * p.fx + kx0) * bpc;
                        for (int kx = kx0; kx < kx1;
                             ++kx, src += depth, tap += bpc) {
                            const auto rot = static_cast<std::size_t>(
                                dadiannao::laneOf(cfg.laneAssignment, x0 + kx,
                                                  iy, brickBase,
                                                  static_cast<int>(cursor),
                                                  lanes));
                            const std::size_t gap = rot >= lane
                                ? rot - lane : rot + wideLanes - lane;
                            lane = rot + bpcLane;
                            lane = lane >= wideLanes ? lane - wideLanes : lane;
                            cursor += gap;
                            if (gap != 0 || kx == kx0 || depth != bpc)
                                segs.push_back({cursor, src, tap, 0});
                            segs.back().len += bpc;
                            runs.push_back(
                                {src, static_cast<int>(rot), bricksPerCell});
                            cursor += bpc;
                            nmReads += bpc;
                        }
                    }
                }
                stream.assign((cursor + block - 1) / block * block, kNoBrick);
                skips.resize(stream.size());
                noSkips.resize(std::max(noSkips.size(), stream.size()));
                for (const Segment &sg : segs)
                    std::memcpy(stream.data() + sg.pos, counts.data() + sg.src,
                                sg.len);

                for (int pass = 0; pass < passes; ++pass) {
                    const int fCount = passFilters(pass);
                    const int activeUnits = activeUnitsOf(fCount);
                    // Each pass re-fetches the group's bricks. The fetch
                    // runs read no weight, so one replay serves all.
                    const mem::GroupReplay replay = replayer
                        ? replayer->replayGroup(runs, lanes)
                        : mem::GroupReplay{};
                    for (std::size_t i = 0; i < sinks.size(); ++i) {
                        SinkWalk &sw = walks[i];
                        if (pass < sw.skipPasses) {
                            // The pass's skips, gathered like the counts.
                            const std::uint8_t *skip =
                                sw.skip.data() + pass * passTable;
                            for (const Segment &sg : segs)
                                std::memcpy(skips.data() + sg.pos,
                                            skip + sg.tap, sg.len);
                            sw.lp = laneProfile(skips.data());
                        } else if (pass == 0) {
                            sw.lp = laneProfile(noSkips.data());
                        }
                        sw.sum.cycles += sw.lp.cycles;
                        sw.sum.busy += sw.lp.busy;
                        sw.sum.nonZero += sw.lp.nonZero;
                        sw.sbReads += sw.lp.nonZero * activeUnits;
                        sw.macs += sw.lp.nonZero * fCount;
                        if (!sinks[i].mem)
                            continue;
                        const mem::GroupCost gc =
                            sinks[i].mem->chargeGroup(replay, sw.lp.cycles);
                        sw.conflict += gc.conflictCycles;
                        sw.fill += gc.gbFillCycles;
                    }
                }
            }
        }
    }

    // Fold each sink's pass totals into its result. Bank conflicts
    // and exposed GB fills stretch their group with every lane idle;
    // the rest of the idle lane time waits at window barriers.
    const std::uint64_t windows =
        static_cast<std::uint64_t>(outShape.x) * outShape.y;
    std::vector<LayerResult> results(sinks.size());
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        const SinkWalk &sw = walks[i];
        LayerResult &r = results[i];
        r.cycles = sw.sum.cycles + sw.conflict + sw.fill;
        r.activity.nonZero = sw.sum.nonZero * units;
        r.activity.stall = (r.cycles * wideLanes - sw.sum.nonZero) * units;
        r.energy.nmReads = nmReads * passes;
        r.energy.nbinWrites = r.energy.nbinReads = sw.sum.nonZero * units;
        r.energy.sbReads = sw.sbReads;
        r.energy.multOps = r.energy.addOps = sw.macs;
        // One output brick per lanes (= brick size) filters.
        r.energy.nmWrites = r.micro.encoderBricks =
            windows * ((p.filters + lanes - 1) / lanes);
        r.energy.encoderOps = r.micro.encoderBusyCycles =
            windows * static_cast<std::uint64_t>(p.filters);
        r.micro.laneBusyCycles = sw.sum.busy;
        r.micro.laneIdleCycles = r.cycles * wideLanes - sw.sum.busy;
        r.micro.stalls[sim::StallReason::WindowBarrier] =
            sw.sum.cycles * wideLanes - sw.sum.busy;
        r.micro.stalls[sim::StallReason::NmBankConflict] =
            sw.conflict * wideLanes;
        r.micro.stalls[sim::StallReason::GbMiss] = sw.fill * wideLanes;
    }
    return results;
}

LayerResult
convCnv(const NodeConfig &cfg, const nn::ConvParams &p,
        const Shape3 &inShape, const CountMap &counts,
        mem::MemoryModel *mem)
{
    LayerResult r = convCnv2(cfg, p, inShape, counts, 0, 0.0, mem);
    r.name = "conv(cnv)";
    return r;
}

LayerResult
convCnv2(const NodeConfig &cfg, const nn::ConvParams &p,
         const Shape3 &inShape, const CountMap &counts, int convIndex,
         double weightSparsity, mem::MemoryModel *mem)
{
    const EncodedSink sink{weightSparsity, mem};
    LayerResult r =
        convEncoded(cfg, p, inShape, counts, convIndex, {&sink, 1})[0];
    r.name = "conv(cnv2)";
    return r;
}

} // namespace cnv::timing
