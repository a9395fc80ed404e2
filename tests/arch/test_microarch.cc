/**
 * @file
 * Tests for the cycle-level microarchitectural components: the
 * serial ZFNAf encoder (Section IV-B4) and the dispatcher with its
 * Brick Buffer, per-bank fetch pointers, and banked NM (Section
 * IV-B3). The dispatcher tests also validate the timing assumptions
 * used by the fast models: with enough prefetch depth, NM latency
 * is fully hidden and per-lane drain time equals the sum of
 * max(nonZeros, 1) over the lane's bricks.
 */

#include <gtest/gtest.h>

#include "ref/dispatcher.h"
#include "ref/encoder.h"
#include "ref/engine.h"
#include "sim/rng.h"

namespace {

using namespace cnv;
using ref::BrickData;
using ref::Dispatcher;
using ref::DispatcherConfig;
using ref::EncoderUnit;
using tensor::Fixed16;

BrickData
brick(std::initializer_list<std::pair<int, int>> valueOffset)
{
    BrickData b;
    for (auto [v, o] : valueOffset)
        b.push_back({Fixed16::fromRaw(static_cast<std::int16_t>(v)),
                     static_cast<std::uint8_t>(o)});
    return b;
}

TEST(Encoder, EncodesPaperExampleSerially)
{
    // (1, 0, 0, 3) -> ((1,0),(3,3)) in 4 cycles (one neuron/cycle).
    EncoderUnit enc(4);
    const Fixed16 group[4] = {Fixed16::fromRaw(1), Fixed16{}, Fixed16{},
                              Fixed16::fromRaw(3)};
    ASSERT_TRUE(enc.offer({group, 4}));
    EXPECT_FALSE(enc.offer({group, 4})); // busy

    ref::Engine engine("t");
    engine.add(enc);
    EXPECT_EQ(engine.run(100), 4u);
    EXPECT_EQ(enc.busyCycles(), 4u);

    ASSERT_EQ(enc.bricks().size(), 1u);
    const BrickData &out = enc.bricks()[0];
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].value.raw(), 1);
    EXPECT_EQ(out[0].offset, 0);
    EXPECT_EQ(out[1].value.raw(), 3);
    EXPECT_EQ(out[1].offset, 3);
}

TEST(Encoder, AllZeroGroupYieldsEmptyBrick)
{
    EncoderUnit enc(16);
    std::vector<Fixed16> zeros(16);
    ASSERT_TRUE(enc.offer({zeros.data(), zeros.size()}));
    ref::Engine engine("t");
    engine.add(enc);
    engine.run(100);
    ASSERT_EQ(enc.bricks().size(), 1u);
    EXPECT_TRUE(enc.bricks()[0].empty());
}

TEST(Encoder, BackToBackGroups)
{
    EncoderUnit enc(4);
    ref::Engine engine("t");
    engine.add(enc);
    for (int g = 0; g < 3; ++g) {
        const Fixed16 group[4] = {Fixed16::fromRaw(g + 1), Fixed16{},
                                  Fixed16::fromRaw(7), Fixed16{}};
        ASSERT_TRUE(enc.offer({group, 4}));
        engine.run(100);
    }
    ASSERT_EQ(enc.bricks().size(), 3u);
    for (int g = 0; g < 3; ++g) {
        EXPECT_EQ(enc.bricks()[g].size(), 2u);
        EXPECT_EQ(enc.bricks()[g][0].value.raw(), g + 1);
    }
    EXPECT_EQ(enc.busyCycles(), 12u);
}

TEST(Dispatcher, BroadcastsOneNeuronPerLanePerCycle)
{
    DispatcherConfig cfg;
    cfg.lanes = 2;
    std::vector<std::deque<BrickData>> lanes(2);
    lanes[0].push_back(brick({{1, 0}, {2, 5}, {3, 15}}));
    lanes[1].push_back(brick({{9, 2}}));

    Dispatcher d(cfg, std::move(lanes));
    ref::Engine engine("t");
    engine.add(d);
    const auto cycles = engine.run(100);

    // Lane 0 needs 3 broadcast cycles after the initial NM fill.
    EXPECT_EQ(cycles, 3u + cfg.nmLatencyCycles);
    ASSERT_EQ(d.broadcasts(0).size(), 3u);
    EXPECT_EQ(d.broadcasts(0)[1].value.raw(), 2);
    EXPECT_EQ(d.broadcasts(0)[1].offset, 5);
    ASSERT_EQ(d.broadcasts(1).size(), 1u);
    EXPECT_EQ(d.nmReads(), 2u);
}

TEST(Dispatcher, PrefetchHidesNmLatency)
{
    // Lane with many bricks of >= latency non-zeros: after the fill,
    // drain time equals the total entry count (no bubbles).
    DispatcherConfig cfg;
    cfg.lanes = 1;
    cfg.nmLatencyCycles = 2;
    cfg.bbDepth = 3; // >= latency + 1

    std::vector<std::deque<BrickData>> lanes(1);
    const int bricks = 10;
    for (int b = 0; b < bricks; ++b)
        lanes[0].push_back(brick({{1, 0}, {2, 1}, {3, 2}}));

    Dispatcher d(cfg, std::move(lanes));
    ref::Engine engine("t");
    engine.add(d);
    const auto cycles = engine.run(1000);
    EXPECT_EQ(cycles, 3u * bricks + cfg.nmLatencyCycles);
    EXPECT_EQ(d.broadcasts(0).size(), 3u * bricks);
}

TEST(Dispatcher, ShallowBufferLeaksBubbles)
{
    // Single-entry BB with one-entry bricks: every brick costs the
    // full NM latency instead of one cycle.
    DispatcherConfig cfg;
    cfg.lanes = 1;
    cfg.nmLatencyCycles = 3;
    cfg.bbDepth = 1;

    std::vector<std::deque<BrickData>> lanes(1);
    for (int b = 0; b < 8; ++b)
        lanes[0].push_back(brick({{1, 0}}));

    Dispatcher d(cfg, std::move(lanes));
    ref::Engine engine("t");
    engine.add(d);
    const auto cycles = engine.run(1000);
    EXPECT_GT(cycles, 8u * 2);
    EXPECT_GT(d.stallCycles(0), 0u);
}

TEST(Dispatcher, WorstCaseAllZeroBricksSustainsOneBrickPerCycle)
{
    // The paper's worst case: every brick is all-zero; a bank must
    // supply a new brick each cycle (sub-banked NM sustains this).
    DispatcherConfig cfg;
    cfg.lanes = 1;
    cfg.nmLatencyCycles = 2;
    cfg.bbDepth = 3;

    std::vector<std::deque<BrickData>> lanes(1);
    for (int b = 0; b < 20; ++b)
        lanes[0].push_back(BrickData{});

    Dispatcher d(cfg, std::move(lanes));
    ref::Engine engine("t");
    engine.add(d);
    const auto cycles = engine.run(1000);
    EXPECT_EQ(cycles, 20u + cfg.nmLatencyCycles);
    EXPECT_TRUE(d.broadcasts(0).empty());
}

TEST(Dispatcher, FreeEmptyBrickSkipConsumesNoCycleWhenBuffered)
{
    DispatcherConfig cfg;
    cfg.lanes = 1;
    cfg.nmLatencyCycles = 1;
    cfg.bbDepth = 4;
    cfg.emptyBrickCostsCycle = false;

    std::vector<std::deque<BrickData>> lanes(1);
    lanes[0].push_back(brick({{1, 0}}));
    lanes[0].push_back(BrickData{});
    lanes[0].push_back(BrickData{});
    lanes[0].push_back(brick({{2, 3}}));

    Dispatcher d(cfg, std::move(lanes));
    ref::Engine engine("t");
    engine.add(d);
    engine.run(100);
    // Both non-zero neurons broadcast; the empties were skipped
    // without occupying broadcast cycles once buffered.
    ASSERT_EQ(d.broadcasts(0).size(), 2u);
    EXPECT_EQ(d.broadcasts(0)[1].value.raw(), 2);
}

TEST(Dispatcher, MatchesFastModelLaneTiming)
{
    // Randomized lanes: with prefetch depth >= latency + 1, each
    // lane's drain time equals sum(max(nz,1)) + the one-time fill,
    // which is exactly the fast models' assumption.
    sim::Rng rng(77);
    DispatcherConfig cfg;
    cfg.lanes = 16;
    cfg.nmLatencyCycles = 2;
    cfg.bbDepth = 3;

    std::vector<std::deque<BrickData>> lanes(16);
    std::vector<std::uint64_t> expected(16, 0);
    std::uint64_t worst = 0;
    for (int lane = 0; lane < 16; ++lane) {
        const int bricks = 5 + static_cast<int>(rng.uniformInt(
                                   std::uint64_t{8}));
        for (int b = 0; b < bricks; ++b) {
            const int nz = static_cast<int>(rng.uniformInt(
                std::uint64_t{17})); // 0..16
            BrickData data;
            for (int i = 0; i < nz; ++i)
                data.push_back({Fixed16::fromRaw(1),
                                static_cast<std::uint8_t>(i)});
            expected[lane] += std::max(nz, 1);
            lanes[lane].push_back(std::move(data));
        }
        worst = std::max(worst, expected[lane]);
    }

    Dispatcher d(cfg, std::move(lanes));
    ref::Engine engine("t");
    engine.add(d);
    const auto cycles = engine.run(10000);
    EXPECT_EQ(cycles, worst + cfg.nmLatencyCycles);
}

} // namespace
