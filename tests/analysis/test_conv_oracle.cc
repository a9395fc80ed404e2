/**
 * @file
 * Seeded randomised differential test of the encoded conv timing
 * models (timing::convCnv, timing::convCnv2 and the shared walk
 * timing::convEncoded) against the per-pass, per-brick oracle in
 * reference_cnv2.h. Each case draws a layer shape (depths off the
 * brick size, one brick per cell and many more bricks per cell than
 * lanes included), filter geometry with strides and pads that clip
 * window rows, a filter count spanning one to three passes, a
 * lane/brick width, an NBout depth, a lane assignment, the
 * empty-brick cost and a weight sparsity, and runs with the ideal
 * hierarchy or with banked MemoryModels fed in lockstep. Every
 * LayerResult field and the drained memory counters must match
 * exactly. Skip-free walks, which read prefix sums instead of
 * gathering, are checked on every shared-walk case, at the 16-bit
 * window-row bound and at lane counts the draw never picks (each with
 * only ideal sinks too), and on production-scale shapes the draw never
 * reaches. VGG-19's per-layer CNV cycles at three Table II rungs are
 * pinned as well.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "analysis/reference_cnv2.h"
#include "arch/registry.h"
#include "dadiannao/config.h"
#include "mem/memory_model.h"
#include "nn/zoo/zoo.h"
#include "sim/error.h"
#include "timing/conv_model.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

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

/** One random conv layer, node configuration and memory geometry. */
struct RandomCase
{
    dadiannao::NodeConfig cfg;
    nn::ConvParams p;
    tensor::Shape3 in;
    timing::CountMap counts;
    int convIndex = 0;
    double sparsity = 0.0;
    bool banked = false;
    mem::Geometry geo;
};

/**
 * Draw a case: a layer shape (depths off the brick size included),
 * filter geometry, one to three filter passes, a lane/brick width, an
 * NBout depth, a lane assignment, the empty-brick cost, a weight
 * sparsity, per-brick counts at a per-case density and a memory
 * kind and geometry.
 */
RandomCase
drawCase(std::mt19937_64 &rng)
{
    // Lane counts that divide 64 and one that does not (its stream
    // folds a row at a time, and its lane wrap is a remainder).
    const int brickChoices[] = {4, 8, 12, 16, 32};
    const dadiannao::LaneAssignment policies[] = {
        dadiannao::LaneAssignment::ZOnly,
        dadiannao::LaneAssignment::XYZHash,
        dadiannao::LaneAssignment::WindowEven};
    const double sparsityChoices[] = {0.0, 0.35, 1.0};
    const int bankChoices[] = {1, 3, 16};
    const std::uint64_t gbChoices[] = {3, 64, 4096};
    const auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };

    RandomCase k;
    dadiannao::NodeConfig &cfg = k.cfg;
    cfg.brickSize = cfg.lanes = brickChoices[pick(5)];
    cfg.nboutEntries = 16 + pick(113);
    cfg.laneAssignment = policies[pick(3)];
    cfg.emptyBrickCostsCycle = pick(2) == 0;

    nn::ConvParams &p = k.p;
    p.groups = 1 + pick(2);
    tensor::Shape3 &in = k.in;
    // Depth: one brick per cell, up to 96, or up to 512 (far more
    // bricks per cell than lanes) on a smaller input.
    const int depthKind = pick(3);
    const int maxDepth = depthKind == 0 ? p.groups * cfg.brickSize
                         : depthKind == 1 ? 96 : 512;
    const int side = depthKind == 2 ? 8 : 20;
    in = {1 + pick(side), 1 + pick(side), 0};
    if (p.groups == 1) {
        in.z = 1 + pick(maxDepth);
    } else {
        const int unit = p.groups * cfg.brickSize;
        in.z = unit * (1 + pick(maxDepth / unit));
    }
    // Strides past the filter and pads past the input edge clip
    // window rows, so a row's cells start mid-row or skip columns.
    p.stride = 1 + pick(4);
    p.pad = pick(4);
    p.fx = std::min(1 + pick(5), in.x + 2 * p.pad);
    p.fy = std::min(1 + pick(5), in.y + 2 * p.pad);
    const int parallel = cfg.parallelFilters();
    const int passes = 1 + pick(3);
    p.filters = p.groups * ((passes - 1) * parallel + 1 + pick(parallel));
    k.convIndex = pick(8);
    k.sparsity = sparsityChoices[pick(3)];

    // Per-brick non-zero counts at a per-case density; the last
    // brick of a column may be narrower than the brick size.
    const int bricks = (in.z + cfg.brickSize - 1) / cfg.brickSize;
    k.counts = timing::CountMap(in.x, in.y, bricks);
    const int density = pick(5); // in quarters: 0, 1/4, ..., 1
    for (int y = 0; y < in.y; ++y) {
        for (int x = 0; x < in.x; ++x) {
            for (int b = 0; b < bricks; ++b) {
                const int width =
                    std::min(cfg.brickSize, in.z - b * cfg.brickSize);
                int nz = 0;
                for (int i = 0; i < width; ++i)
                    nz += pick(4) < density ? 1 : 0;
                k.counts.at(x, y, b) = static_cast<std::uint8_t>(nz);
            }
        }
    }

    k.banked = pick(2) == 0;
    k.geo.banks = bankChoices[pick(3)];
    k.geo.gbLines = gbChoices[pick(3)];
    k.geo.dramBytesPerCycle = 16;
    return k;
}

testing::Message
describe(int c, const RandomCase &k)
{
    return testing::Message()
           << "case " << c << ": in " << k.in.x << "x" << k.in.y << "x"
           << k.in.z << ", f " << k.p.fx << "x" << k.p.fy << ", stride "
           << k.p.stride << ", pad " << k.p.pad << ", groups "
           << k.p.groups << ", filters " << k.p.filters << ", brick "
           << k.cfg.brickSize << ", nbout " << k.cfg.nboutEntries
           << ", policy " << static_cast<int>(k.cfg.laneAssignment)
           << ", emptyCostsCycle " << k.cfg.emptyBrickCostsCycle
           << ", sparsity " << k.sparsity << ", banked " << k.banked;
}

mem::MemoryModel *
ptr(std::optional<mem::MemoryModel> &m)
{
    return m ? &*m : nullptr;
}

TEST(ConvCnvOracle, MatchesPerBrickReferenceOnRandomLayers)
{
    std::mt19937_64 rng(2017);
    for (int c = 0; c < 600; ++c) {
        const RandomCase k = drawCase(rng);
        SCOPED_TRACE(describe(c, k));

        // The oracle and the model under test each own one memory
        // model of the same geometry, fed the same layer in lockstep.
        std::optional<mem::MemoryModel> wantMem, gotMem;
        if (k.banked) {
            wantMem.emplace(k.geo);
            gotMem.emplace(k.geo);
        }

        const LayerResult want = testsupport::referenceConvCnv2(
            k.cfg, k.p, k.in, k.counts, k.convIndex, k.sparsity,
            ptr(wantMem));
        const LayerResult got = timing::convCnv2(
            k.cfg, k.p, k.in, k.counts, k.convIndex, k.sparsity,
            ptr(gotMem));
        EXPECT_EQ(got.name, "conv(cnv2)");
        expectSameResult(got, want);
        if (k.banked)
            expectSameCounters(gotMem->drainLayer(), wantMem->drainLayer());

        if (k.sparsity == 0.0) {
            // CNV is Cnvlutin2 without weight skipping. The memory
            // pair was drained above, so both start the layer cold.
            const LayerResult again = testsupport::referenceConvCnv2(
                k.cfg, k.p, k.in, k.counts, k.convIndex, 0.0,
                ptr(wantMem));
            const LayerResult cnv =
                timing::convCnv(k.cfg, k.p, k.in, k.counts, ptr(gotMem));
            EXPECT_EQ(cnv.name, "conv(cnv)");
            expectSameResult(cnv, again);
            if (k.banked)
                expectSameCounters(gotMem->drainLayer(),
                                   wantMem->drainLayer());
        }
    }
}

TEST(ConvCnvOracle, SharedWalkMatchesReferencePerSink)
{
    // One walk feeding CNV and Cnvlutin2 at two sparsities: each sink
    // must see exactly what its own reference run sees, on the ideal
    // hierarchy and with every sink charged from one banked replay.
    const double sinkSparsity[] = {0.0, 0.2, 0.5};
    constexpr std::size_t kSinks = std::size(sinkSparsity);
    std::mt19937_64 rng(2027);
    for (int c = 0; c < 300; ++c) {
        const RandomCase k = drawCase(rng);
        for (const bool banked : {false, true}) {
            SCOPED_TRACE(describe(c, k) << ", walk banked " << banked);
            std::array<std::optional<mem::MemoryModel>, kSinks> gotMem,
                wantMem;
            std::array<timing::EncodedSink, kSinks> sinks;
            for (std::size_t i = 0; i < kSinks; ++i) {
                if (banked) {
                    gotMem[i].emplace(k.geo);
                    wantMem[i].emplace(k.geo);
                }
                sinks[i] = {sinkSparsity[i], ptr(gotMem[i])};
            }
            const std::vector<LayerResult> got = timing::convEncoded(
                k.cfg, k.p, k.in, k.counts, k.convIndex, sinks);
            ASSERT_EQ(got.size(), kSinks);
            for (std::size_t i = 0; i < kSinks; ++i) {
                SCOPED_TRACE(testing::Message()
                             << "sink sparsity " << sinkSparsity[i]);
                const LayerResult want = testsupport::referenceConvCnv2(
                    k.cfg, k.p, k.in, k.counts, k.convIndex,
                    sinkSparsity[i], ptr(wantMem[i]));
                expectSameResult(got[i], want);
                if (banked)
                    expectSameCounters(gotMem[i]->drainLayer(),
                                       wantMem[i]->drainLayer());
            }
        }

        // A skip-free walk (no sink prunes weight bricks) reads prefix
        // sums instead of gathering; its banked sink still gets the
        // per-cell fetch runs.
        SCOPED_TRACE(describe(c, k) << ", skip-free walk");
        mem::MemoryModel gotMem(k.geo), wantMem(k.geo);
        const timing::EncodedSink sinks[] = {{0.0, nullptr},
                                             {0.0, &gotMem}};
        const std::vector<LayerResult> got = timing::convEncoded(
            k.cfg, k.p, k.in, k.counts, k.convIndex, sinks);
        ASSERT_EQ(got.size(), 2u);
        expectSameResult(got[0], testsupport::referenceConvCnv2(
                                     k.cfg, k.p, k.in, k.counts,
                                     k.convIndex, 0.0, nullptr));
        expectSameResult(got[1], testsupport::referenceConvCnv2(
                                     k.cfg, k.p, k.in, k.counts,
                                     k.convIndex, 0.0, &wantMem));
        expectSameCounters(gotMem.drainLayer(), wantMem.drainLayer());
    }
}

TEST(ConvCnvOracle, SkipFreeWalkAtTheWindowRowBound)
{
    // One lane, dense input, 3-wide windows over 21845-brick cells: a
    // window row puts 3 x 21845 = 65535 cycles on the lane, the most
    // 16-bit prefix sums hold, while a whole row's prefix (87380)
    // wraps. Two ideal sinks (each conv group one walk), and an ideal
    // and a banked one (a walk per window group), must match the
    // oracle; a brick more per cell is past the model limit.
    dadiannao::NodeConfig cfg;
    cfg.brickSize = cfg.lanes = 1;
    nn::ConvParams p;
    p.filters = 1;
    p.fx = 3;
    p.fy = 2;
    p.stride = 1;
    const auto run = [&](int depth, mem::MemoryModel *gotMem,
                         mem::MemoryModel *wantMem) {
        const tensor::Shape3 in{4, 2, depth};
        timing::CountMap counts(in.x, in.y, depth);
        std::fill_n(counts.data(), counts.size(), std::uint8_t{1});
        const timing::EncodedSink sinks[] = {{0.0, nullptr},
                                             {0.0, gotMem}};
        const std::vector<LayerResult> got =
            timing::convEncoded(cfg, p, in, counts, 0, sinks);
        ASSERT_EQ(got.size(), 2u);
        expectSameResult(got[0], testsupport::referenceConvCnv2(
                                     cfg, p, in, counts, 0, 0.0, nullptr));
        expectSameResult(got[1], testsupport::referenceConvCnv2(
                                     cfg, p, in, counts, 0, 0.0, wantMem));
    };
    mem::Geometry geo;
    geo.banks = 1;
    geo.dramBytesPerCycle = 16;
    mem::MemoryModel gotMem(geo), wantMem(geo);
    run(21845, nullptr, nullptr);
    run(21845, &gotMem, &wantMem);
    expectSameCounters(gotMem.drainLayer(), wantMem.drainLayer());
    EXPECT_THROW(run(21846, nullptr, nullptr), sim::PanicError);
}

TEST(ConvCnvOracle, SkipFreeWalkAtOtherLaneCounts)
{
    // Lane counts the random cases do not draw: 5 and 17 leave lanes
    // of the last 16-lane vector add unused, and 17 and 64 take four
    // adds. Two ideal sinks walk each conv group in one call; an ideal
    // and a banked one walk a window group per call.
    for (const int lanes : {5, 17, 64}) {
        for (const auto policy : {dadiannao::LaneAssignment::ZOnly,
                                  dadiannao::LaneAssignment::XYZHash,
                                  dadiannao::LaneAssignment::WindowEven}) {
            dadiannao::NodeConfig cfg;
            cfg.brickSize = cfg.lanes = lanes;
            cfg.laneAssignment = policy;
            nn::ConvParams p;
            p.fx = p.fy = 3;
            p.stride = 1;
            p.pad = 1;
            p.filters = cfg.parallelFilters() + 1;
            const tensor::Shape3 in{9, 7, 3 * lanes + 2};
            const int bricks = (in.z + lanes - 1) / lanes;
            timing::CountMap counts(in.x, in.y, bricks);
            std::mt19937_64 rng(static_cast<std::uint64_t>(lanes));
            for (int y = 0; y < in.y; ++y)
                for (int x = 0; x < in.x; ++x)
                    for (int b = 0; b < bricks; ++b)
                        counts.at(x, y, b) = static_cast<std::uint8_t>(
                            rng() % static_cast<std::uint64_t>(
                                        std::min(lanes, in.z - b * lanes) +
                                        1));
            mem::Geometry geo;
            geo.banks = lanes;
            geo.dramBytesPerCycle = 16;
            for (const bool banked : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "lanes " << lanes << ", policy "
                             << static_cast<int>(policy) << ", banked "
                             << banked);
                std::optional<mem::MemoryModel> gotMem, wantMem;
                if (banked) {
                    gotMem.emplace(geo);
                    wantMem.emplace(geo);
                }
                const timing::EncodedSink sinks[] = {{0.0, nullptr},
                                                     {0.0, ptr(gotMem)}};
                const std::vector<LayerResult> got =
                    timing::convEncoded(cfg, p, in, counts, 0, sinks);
                ASSERT_EQ(got.size(), 2u);
                expectSameResult(got[0], testsupport::referenceConvCnv2(
                                             cfg, p, in, counts, 0, 0.0,
                                             nullptr));
                expectSameResult(got[1], testsupport::referenceConvCnv2(
                                             cfg, p, in, counts, 0, 0.0,
                                             ptr(wantMem)));
                if (banked)
                    expectSameCounters(gotMem->drainLayer(),
                                       wantMem->drainLayer());
            }
        }
    }
}

TEST(ConvCnvOracle, SkipFreeWalkOnProductionShapes)
{
    // Shapes the random draw (sides up to 20) never reaches, each with
    // two filter passes: 3-window groups that straddle output rows
    // (56 x 56 outputs, NBout 48), 6-window groups on a deep input,
    // two conv groups (the row ring restarts for the second), and a
    // strided 5 x 5 layer whose pad clips window rows. Cnvlutin2 at
    // sparsity 0 and CNV must match the oracle, ideal and banked.
    struct Shape
    {
        tensor::Shape3 in;
        int f, stride, pad, groups, nbout;
    };
    const Shape shapes[] = {{{56, 56, 128}, 3, 1, 1, 1, 48},
                            {{14, 14, 512}, 3, 1, 1, 1, 96},
                            {{27, 27, 96}, 3, 1, 1, 2, 64},
                            {{31, 31, 48}, 5, 2, 2, 1, 64}};
    for (const Shape &sh : shapes) {
        dadiannao::NodeConfig cfg;
        cfg.nboutEntries = sh.nbout;
        nn::ConvParams p;
        p.fx = p.fy = sh.f;
        p.stride = sh.stride;
        p.pad = sh.pad;
        p.groups = sh.groups;
        p.filters = sh.groups * (cfg.parallelFilters() + 16);
        const int bricks = sh.in.z / cfg.brickSize;
        timing::CountMap counts(sh.in.x, sh.in.y, bricks);
        std::mt19937_64 rng(static_cast<std::uint64_t>(sh.in.z));
        for (std::uint8_t &c : std::span(counts.data(), counts.size()))
            c = static_cast<std::uint8_t>(
                rng() % static_cast<std::uint64_t>(cfg.brickSize + 1));
        mem::Geometry geo;
        geo.banks = cfg.nmBanks;
        geo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
        for (const bool banked : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "in " << sh.in.x << "x" << sh.in.y << "x"
                         << sh.in.z << ", f " << sh.f << ", groups "
                         << sh.groups << ", banked " << banked);
            std::optional<mem::MemoryModel> gotMem, wantMem;
            if (banked) {
                gotMem.emplace(geo);
                wantMem.emplace(geo);
            }
            const LayerResult want = testsupport::referenceConvCnv2(
                cfg, p, sh.in, counts, 0, 0.0, ptr(wantMem));
            expectSameResult(timing::convCnv2(cfg, p, sh.in, counts, 0, 0.0,
                                              ptr(gotMem)),
                             want);
            if (banked)
                expectSameCounters(gotMem->drainLayer(),
                                   wantMem->drainLayer());
            const LayerResult again = testsupport::referenceConvCnv2(
                cfg, p, sh.in, counts, 0, 0.0, ptr(wantMem));
            expectSameResult(
                timing::convCnv(cfg, p, sh.in, counts, ptr(gotMem)), again);
            if (banked)
                expectSameCounters(gotMem->drainLayer(),
                                   wantMem->drainLayer());
        }
    }
}

TEST(ConvCnvPins, Vgg19LayerCyclesAtTableTwoRungs)
{
    // Full-geometry VGG-19, image seed 2016, CNV at three uniform
    // rungs of the Table II threshold ladder, ideal and banked: each
    // conv layer's cycles. Its depths give 1 to 32 bricks per cell;
    // at rung 256 the banked fills outrun the shortened compute.
    struct Pin
    {
        std::int32_t threshold;
        mem::Kind memKind;
        std::vector<std::uint64_t> cycles;
    };
    const Pin pins[] = {
        {4, mem::Kind::Ideal,
         {223780u, 1299694u, 321581u, 619160u, 147795u, 304703u, 290482u,
          283715u, 136614u, 250832u, 238836u, 240518u, 55740u, 54326u,
          54032u, 51196u}},
        {4, mem::Kind::Banked,
         {223780u, 1299807u, 321638u, 619270u, 147849u, 304703u, 290482u,
          283715u, 136614u, 250832u, 238836u, 240518u, 55740u, 54326u,
          54032u, 51196u}},
        {32, mem::Kind::Ideal,
         {223780u, 1074912u, 264626u, 501192u, 120139u, 242674u, 231969u,
          226899u, 108988u, 199286u, 190028u, 191950u, 43988u, 43100u,
          42940u, 40976u}},
        {32, mem::Kind::Banked,
         {223780u, 1075027u, 264683u, 501302u, 120196u, 242681u, 231969u,
          226899u, 108993u, 199286u, 190075u, 191950u, 43988u, 43132u,
          42968u, 41022u}},
        {256, mem::Kind::Ideal,
         {223780u, 186579u, 46007u, 82721u, 20223u, 37491u, 37107u, 36882u,
          17986u, 33600u, 33520u, 33116u, 7876u, 7950u, 7794u, 7708u}},
        {256, mem::Kind::Banked,
         {223780u, 208617u, 52144u, 101544u, 25561u, 50699u, 50653u, 50692u,
          21790u, 42288u, 42252u, 42050u, 10417u, 10460u, 10363u, 10316u}},
    };
    const auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 2016);
    timing::TraceCache cache;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(testing::Message() << "threshold " << pin.threshold
                                        << ", " << mem::kindName(pin.memKind));
        nn::PruneConfig prune;
        prune.thresholds.assign(
            static_cast<std::size_t>(net->convLayerCount()), pin.threshold);
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.prune = &prune;
        opts.cache = &cache;
        opts.memKind = pin.memKind;
        const auto run = arch::builtin().get("cnv").simulateNetwork(
            dadiannao::NodeConfig{}, *net, opts);
        std::vector<std::uint64_t> cycles;
        for (const int id : net->convNodeIds())
            for (const dadiannao::LayerResult &layer : run.layers)
                if (layer.name == net->node(id).name)
                    cycles.push_back(layer.cycles);
        EXPECT_EQ(cycles, pin.cycles);
    }
}

} // namespace
