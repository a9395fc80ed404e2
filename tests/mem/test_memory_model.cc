/**
 * @file
 * Tests for mem::MemoryModel through its public calls: hand-worked
 * bank-conflict cases (a 4-bank example, all lanes on one bank,
 * distinct banks, runs that wrap the lanes), global-buffer hits,
 * misses and evictions (runs partly resident, across the slot wrap,
 * longer than the GB), fill hiding behind compute, per-layer drain
 * epochs, the conflict-free sequential walk and one replay charged
 * to two models; then seeded randomised differential tests of run
 * lists against the naive per-brick round-replay oracle in
 * reference_memory.h, charged to one model and to two.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "mem/memory_model.h"
#include "mem/reference_memory.h"

namespace {

using namespace cnv;
using testsupport::Access;

/** Lanes of the hand-worked single-brick groups. */
constexpr int kLanes = 16;

mem::Geometry
geometry(int banks, std::uint64_t gbLines = mem::kDefaultGbLines,
         std::uint64_t dramBytesPerCycle = 16)
{
    mem::Geometry g;
    g.banks = banks;
    g.gbLines = gbLines;
    g.dramBytesPerCycle = dramBytesPerCycle;
    return g;
}

/** One single-brick run per fetch, in order. */
std::vector<mem::Run>
single(const std::vector<Access> &fetches)
{
    std::vector<mem::Run> runs;
    for (const Access &a : fetches)
        runs.push_back({a.address, a.lane, 1});
    return runs;
}

/** Replay `runs` over `lanes` lanes and charge them to `model`. */
mem::GroupCost
fetch(mem::MemoryModel &model, const std::vector<mem::Run> &runs,
      int lanes, std::uint64_t computeCycles)
{
    return model.chargeGroup(model.replayGroup(runs, lanes),
                             computeCycles);
}

/** fetch() of one single-brick run per fetch. */
mem::GroupCost
fetch(mem::MemoryModel &model, const std::vector<Access> &fetches,
      std::uint64_t computeCycles)
{
    return fetch(model, single(fetches), kLanes, computeCycles);
}

/**
 * Hand-worked example, 4 banks (address % 4 = bank), every fetch a
 * GB miss:
 *
 *   lane 0 stream: addr 0 (bank 0), addr 1 (bank 1)
 *   lane 1 stream: addr 4 (bank 0), addr 5 (bank 1)
 *   lane 2 stream: addr 2 (bank 2)
 *   lane 3 stream: addr 3 (bank 3)
 *
 * Round 1 heads: banks {0, 0, 2, 3} — bank 0 serves two fetches, so
 * the round takes 2 cycles instead of 1 (+1 conflict).
 * Round 2 heads: banks {1, 1} — bank 1 serves two (+1 conflict).
 * Total: 2 conflict cycles for 6 accesses.
 */
TEST(MemoryModel, HandWorkedFourBankExample)
{
    mem::MemoryModel model(geometry(4));
    const std::vector<Access> group = {
        {0, 0}, {1, 4}, {2, 2}, {3, 3}, {0, 1}, {1, 5}};
    EXPECT_EQ(fetch(model, group, 6).conflictCycles, 2u);
    EXPECT_EQ(model.totals().nmAccesses, 6u);
    EXPECT_EQ(model.totals().nmConflictCycles, 2u);
}

TEST(MemoryModel, AllLanesOnOneBankSerialiseFully)
{
    mem::MemoryModel model(geometry(4));
    // Three lanes, three addresses, all mapping to bank 0: the bank
    // serves them over 3 cycles, 2 of which are conflict cost.
    const std::vector<Access> group = {{0, 0}, {1, 4}, {2, 8}};
    EXPECT_EQ(fetch(model, group, 3).conflictCycles, 2u);
}

TEST(MemoryModel, DistinctBanksNeverConflict)
{
    mem::MemoryModel model(geometry(4));
    const std::vector<Access> group = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
    EXPECT_EQ(fetch(model, group, 4).conflictCycles, 0u);
    EXPECT_EQ(model.totals().nmConflictCycles, 0u);
}

TEST(MemoryModel, SequentialWalkCountsReadsWithoutConflicts)
{
    // The baseline's single unit-wide pointer: one bank per cycle in
    // order, so reads are counted but never conflict or touch the GB.
    mem::MemoryModel model(geometry(4));
    model.fetchSequential(10);
    model.fetchSequential(3);
    const mem::Counters c = model.totals();
    EXPECT_EQ(c.nmAccesses, 13u);
    EXPECT_EQ(c.nmConflictCycles, 0u);
    EXPECT_EQ(c.gbHits + c.gbMisses, 0u);
}

TEST(MemoryModel, DirectMappedGbHitsMissesAndEvictions)
{
    mem::MemoryModel model(geometry(4, /*gbLines=*/2));

    // Cold: both lines miss and are installed.
    fetch(model, std::vector<Access>{{0, 0}, {1, 1}}, 0);
    EXPECT_EQ(model.totals().gbMisses, 2u);

    // Warm: the same addresses hit and never reach the NM.
    const mem::GroupCost warm =
        fetch(model, std::vector<Access>{{0, 0}, {1, 1}}, 0);
    EXPECT_EQ(warm.conflictCycles + warm.gbFillCycles, 0u);
    EXPECT_EQ(model.totals().gbHits, 2u);
    EXPECT_EQ(model.totals().nmAccesses, 2u);

    // Address 2 maps to slot 0 (2 % 2) and evicts resident line 0,
    // so line 0 misses again.
    fetch(model, std::vector<Access>{{0, 2}}, 0);
    EXPECT_EQ(model.totals().gbEvictions, 1u);
    fetch(model, std::vector<Access>{{0, 0}}, 0);
    EXPECT_EQ(model.totals().gbMisses, 4u);
    EXPECT_EQ(model.totals().gbEvictions, 2u);

    // A drain invalidates: line 1 is cold again, and its slot was
    // emptied rather than evicted.
    model.drainLayer();
    fetch(model, std::vector<Access>{{0, 1}}, 0);
    EXPECT_EQ(model.totals().gbMisses, 5u);
    EXPECT_EQ(model.totals().gbEvictions, 2u);
}

TEST(MemoryModel, FiltersThroughGbAndHidesFills)
{
    mem::MemoryModel model(geometry(4, /*gbLines=*/16));

    // Cold group: 2 misses, both on bank 0 (+1 conflict); with no
    // compute to hide behind, both fill cycles are exposed.
    const std::vector<Access> group = {{0, 0}, {1, 4}};
    mem::GroupCost cost = fetch(model, group, /*computeCycles=*/0);
    EXPECT_EQ(cost.conflictCycles, 1u);
    EXPECT_EQ(cost.gbFillCycles, 2u);

    // Warm group: every fetch hits the GB — no NM traffic, no cost.
    cost = fetch(model, group, 0);
    EXPECT_EQ(cost.conflictCycles, 0u);
    EXPECT_EQ(cost.gbFillCycles, 0u);

    mem::Counters c = model.totals();
    EXPECT_EQ(c.nmAccesses, 2u);
    EXPECT_EQ(c.nmConflictCycles, 1u);
    EXPECT_EQ(c.gbHits, 2u);
    EXPECT_EQ(c.gbMisses, 2u);

    // 33 bytes over a 16 B/cycle channel occupy ceil(33/16) cycles.
    EXPECT_EQ(model.dramTransfer(33), 3u);

    // A cold group after a drain: one fill hidden behind one compute
    // cycle, the other exposed.
    model.drainLayer();
    cost = fetch(model, group, 1);
    EXPECT_EQ(cost.gbFillCycles, 1u);
    model.drainLayer();
    cost = fetch(model, group, 8);
    EXPECT_EQ(cost.gbFillCycles, 0u); // hidden behind compute
    EXPECT_EQ(model.totals().gbMisses, 6u);
}

TEST(MemoryModel, DrainReturnsEpochDeltas)
{
    mem::MemoryModel model(geometry(4, 16));
    fetch(model, std::vector<Access>{{0, 0}, {1, 4}}, 0);
    model.dramTransfer(33);

    mem::Counters c = model.drainLayer();
    EXPECT_EQ(c.nmAccesses, 2u);
    EXPECT_EQ(c.nmConflictCycles, 1u);
    EXPECT_EQ(c.dramBytes, 33u);
    EXPECT_EQ(c.dramCycles, 3u);

    c = model.drainLayer();
    EXPECT_EQ(c.nmAccesses, 0u); // nothing since the last drain
    EXPECT_EQ(c.dramBytes, 0u);

    model.fetchSequential(5);
    EXPECT_EQ(model.drainLayer().nmAccesses, 5u);
    EXPECT_EQ(model.totals().nmAccesses, 7u); // totals span epochs
}

TEST(MemoryModel, OneReplayChargesTwoModels)
{
    // Two misses on bank 0 (+1 conflict), replayed once and charged
    // at two compute budgets: each model sees what replaying the
    // group itself would have returned and counted.
    const std::vector<Access> group = {{0, 0}, {1, 4}};
    mem::MemoryModel replayer(geometry(4, /*gbLines=*/16));
    mem::MemoryModel other(geometry(4, /*gbLines=*/16));
    const mem::GroupReplay replay =
        replayer.replayGroup(single(group), kLanes);
    EXPECT_EQ(replay.gbMisses, 2u);
    EXPECT_EQ(replay.conflictCycles, 1u);
    const mem::GroupCost a = replayer.chargeGroup(replay, 0);
    const mem::GroupCost b = other.chargeGroup(replay, 1);

    mem::MemoryModel directA(geometry(4, 16));
    mem::MemoryModel directB(geometry(4, 16));
    const mem::GroupCost wantA = fetch(directA, group, 0);
    const mem::GroupCost wantB = fetch(directB, group, 1);
    EXPECT_EQ(a.conflictCycles, wantA.conflictCycles);
    EXPECT_EQ(a.gbFillCycles, 2u);
    EXPECT_EQ(a.gbFillCycles, wantA.gbFillCycles);
    EXPECT_EQ(b.conflictCycles, wantB.conflictCycles);
    EXPECT_EQ(b.gbFillCycles, 1u);
    EXPECT_EQ(b.gbFillCycles, wantB.gbFillCycles);
    EXPECT_EQ(replayer.totals(), directA.totals());
    EXPECT_EQ(other.totals(), directB.totals());
}

TEST(MemoryModel, RunsTakeConsecutiveLanesAndBanks)
{
    // 4 lanes, 4 banks. Run {0, lane 0, 2 bricks}: addr 0 on lane 0
    // (bank 0), addr 1 on lane 1 (bank 1). Run {4, lane 2, 2}: addr 4
    // on lane 2 (bank 0), addr 5 on lane 3 (bank 1). One round with
    // two heads on banks 0 and 1: +1 conflict.
    mem::MemoryModel model(geometry(4, 16));
    EXPECT_EQ(fetch(model, {{0, 0, 2}, {4, 2, 2}}, 4, 4).conflictCycles, 1u);

    // A run longer than the lane count wraps to lane 0: addrs 8..13
    // on lanes 3,0,1,2,3,0 take two rounds. Over 2 banks, round 0
    // presents banks 0,1,0,1 (+1) and round 1 banks 0,1.
    mem::MemoryModel two(geometry(2, 16));
    EXPECT_EQ(fetch(two, {{8, 3, 6}}, 4, 6).conflictCycles, 1u);
    EXPECT_EQ(two.totals().gbMisses, 6u);
}

TEST(MemoryModel, RunsHitWhatIsResident)
{
    mem::MemoryModel model(geometry(4, /*gbLines=*/16));
    fetch(model, {{0, 0, 4}}, 4, 0);
    EXPECT_EQ(model.totals().gbMisses, 4u);

    // Partly resident: addrs 2 and 3 hit, 4 and 5 miss.
    fetch(model, {{2, 1, 4}}, 4, 0);
    mem::Counters c = model.totals();
    EXPECT_EQ(c.gbHits, 2u);
    EXPECT_EQ(c.gbMisses, 6u);

    // Across the slot wrap: addrs 14..17 take slots 14, 15, 0, 1 and
    // evict lines 0 and 1; a second pass hits all four.
    fetch(model, {{14, 0, 4}}, 4, 0);
    c = model.totals();
    EXPECT_EQ(c.gbMisses, 10u);
    EXPECT_EQ(c.gbEvictions, 2u);
    fetch(model, {{14, 0, 4}}, 4, 0);
    EXPECT_EQ(model.totals().gbHits, 6u);
    EXPECT_EQ(model.totals().gbMisses, 10u);
}

TEST(MemoryModel, RunLongerThanTheGbEvictsItself)
{
    // Two GB lines: addr 2 takes addr 0's slot within one run, so the
    // run is never resident in full.
    mem::MemoryModel model(geometry(4, /*gbLines=*/2));
    fetch(model, {{0, 0, 3}}, 4, 0);
    mem::Counters c = model.totals();
    EXPECT_EQ(c.gbMisses, 3u);
    EXPECT_EQ(c.gbEvictions, 1u);
    // Again: 0 misses (evicting 2), 1 hits, 2 misses (evicting 0).
    fetch(model, {{0, 0, 3}}, 4, 0);
    c = model.totals();
    EXPECT_EQ(c.gbHits, 1u);
    EXPECT_EQ(c.gbMisses, 5u);
    EXPECT_EQ(c.gbEvictions, 3u);
}

TEST(MemoryModel, KindsRoundTrip)
{
    EXPECT_STREQ(mem::kindName(mem::Kind::Ideal), "ideal");
    EXPECT_STREQ(mem::kindName(mem::Kind::Banked), "banked");
    EXPECT_EQ(mem::parseKind("banked"), mem::Kind::Banked);
    EXPECT_EQ(mem::parseKind("ideal"), mem::Kind::Ideal);
    EXPECT_FALSE(mem::parseKind("bogus").has_value());
}

void
expectEqual(const mem::Counters &got, const mem::Counters &want,
            const char *what)
{
    EXPECT_EQ(got.nmAccesses, want.nmAccesses) << what;
    EXPECT_EQ(got.nmConflictCycles, want.nmConflictCycles) << what;
    EXPECT_EQ(got.gbHits, want.gbHits) << what;
    EXPECT_EQ(got.gbMisses, want.gbMisses) << what;
    EXPECT_EQ(got.gbEvictions, want.gbEvictions) << what;
    EXPECT_EQ(got.dramBytes, want.dramBytes) << what;
    EXPECT_EQ(got.dramCycles, want.dramCycles) << what;
}

/** Seeded draws for the randomised differential tests. */
struct Draw
{
    std::mt19937_64 rng;
    std::uint64_t operator()(std::uint64_t n) { return rng() % n; }
};

/** A geometry drawn from bank and GB-line counts that include
 *  non-powers of two (the `%` path) and GBs shorter than a run. */
mem::Geometry
drawGeometry(Draw &pick)
{
    const int bankChoices[] = {1, 3, 4, 16, 64};
    const std::uint64_t gbChoices[] = {1, 2, 3, 16, 1000, 4096};
    return geometry(bankChoices[pick(5)], gbChoices[pick(6)], 1 + pick(64));
}

/**
 * A random fetch group of at most a few thousand bricks, one run per
 * cell: single bricks, runs within the lane count and runs longer
 * than it, some started just below a multiple of the GB size so they
 * cross the slot wrap, and some re-reading part of an earlier run of
 * the group so that only some of their bricks are resident.
 */
std::vector<mem::Run>
drawRuns(Draw &pick, int lanes, std::uint64_t span, std::uint64_t gbLines)
{
    std::vector<mem::Run> runs(pick(200));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        mem::Run &r = runs[i];
        r.lane = static_cast<int>(pick(lanes));
        switch (pick(3)) {
          case 0: r.bricks = 1; break;
          case 1: r.bricks = static_cast<int>(pick(lanes + 1)); break;
          default: r.bricks = lanes + static_cast<int>(pick(2 * lanes + 1));
        }
        switch (pick(3)) {
          case 0: r.address = pick(span); break;
          case 1: {
            const std::uint64_t wrapAt = (1 + pick(4)) * gbLines;
            r.address = wrapAt - std::min<std::uint64_t>(
                                     wrapAt, pick(r.bricks + 1));
            break;
          }
          default:
            if (i == 0) {
                r.address = pick(span);
            } else {
                const mem::Run &earlier = runs[pick(i)];
                r.address = earlier.address + pick(earlier.bricks + 1);
                r.address -= std::min<std::uint64_t>(r.address, pick(4));
            }
        }
    }
    return runs;
}

TEST(MemoryModel, RunsMatchPerBrickOracle)
{
    // Address ranges from "everything collides" to "nothing reuses".
    const std::uint64_t spanChoices[] = {8, 256, 8192, 1u << 20};
    Draw pick{std::mt19937_64(17)};

    for (int c = 0; c < 300; ++c) {
        const mem::Geometry g = drawGeometry(pick);
        const int lanes = 1 + static_cast<int>(pick(16));
        const std::uint64_t span = spanChoices[pick(4)];
        SCOPED_TRACE(testing::Message()
                     << "case " << c << ": banks " << g.banks
                     << ", lanes " << lanes << ", gbLines " << g.gbLines
                     << ", span " << span);

        mem::MemoryModel model(g);
        testsupport::ReferenceMemory oracle(g);
        const int groups = 1 + static_cast<int>(pick(6));
        for (int k = 0; k < groups; ++k) {
            const std::vector<mem::Run> runs =
                drawRuns(pick, lanes, span, g.gbLines);
            const auto bricks = testsupport::expand(runs, lanes);
            // Filter passes re-fetch one group: the first pass fills
            // the GB, later ones mostly hit it.
            const int passes = 1 + static_cast<int>(pick(3));
            for (int pass = 0; pass < passes; ++pass) {
                const std::uint64_t compute = pick(bricks.size() + 2);
                const mem::GroupCost got = fetch(model, runs, lanes, compute);
                const mem::GroupCost want = oracle.fetchGroup(bricks, compute);
                EXPECT_EQ(got.conflictCycles, want.conflictCycles);
                EXPECT_EQ(got.gbFillCycles, want.gbFillCycles);
                expectEqual(model.totals(), oracle.totals(), "pass");
            }

            if (pick(3) == 0) {
                const std::uint64_t reads = pick(1000);
                model.fetchSequential(reads);
                oracle.fetchSequential(reads);
            }
            if (pick(3) == 0) {
                const std::uint64_t bytes = pick(1u << 16);
                EXPECT_EQ(model.dramTransfer(bytes),
                          oracle.dramTransfer(bytes));
            }
            if (pick(3) == 0)
                expectEqual(model.drainLayer(), oracle.drainLayer(),
                            "drainLayer");
        }
        expectEqual(model.totals(), oracle.totals(), "totals");
    }
}

TEST(MemoryModel, SharedReplayMatchesOracleForEveryChargedModel)
{
    // One model replays every group and both it and a second model
    // of the same geometry are charged, each at its own compute
    // budget; each must match a per-brick oracle fed the group at
    // that budget.
    const std::uint64_t spanChoices[] = {8, 256, 8192, 1u << 20};
    Draw pick{std::mt19937_64(27)};

    for (int c = 0; c < 200; ++c) {
        const mem::Geometry g = drawGeometry(pick);
        const int lanes = 1 + static_cast<int>(pick(16));
        const std::uint64_t span = spanChoices[pick(4)];
        SCOPED_TRACE(testing::Message()
                     << "case " << c << ": banks " << g.banks
                     << ", lanes " << lanes << ", gbLines " << g.gbLines
                     << ", span " << span);

        mem::MemoryModel replayer(g);
        mem::MemoryModel other(g);
        testsupport::ReferenceMemory oracleA(g);
        testsupport::ReferenceMemory oracleB(g);
        const int groups = 1 + static_cast<int>(pick(6));
        for (int k = 0; k < groups; ++k) {
            const std::vector<mem::Run> runs =
                drawRuns(pick, lanes, span, g.gbLines);
            const auto bricks = testsupport::expand(runs, lanes);
            const std::uint64_t computeA = pick(bricks.size() + 2);
            const std::uint64_t computeB = pick(bricks.size() + 2);
            const mem::GroupReplay replay = replayer.replayGroup(runs, lanes);
            const mem::GroupCost gotA = replayer.chargeGroup(replay, computeA);
            const mem::GroupCost gotB = other.chargeGroup(replay, computeB);
            const mem::GroupCost wantA = oracleA.fetchGroup(bricks, computeA);
            const mem::GroupCost wantB = oracleB.fetchGroup(bricks, computeB);
            EXPECT_EQ(gotA.conflictCycles, wantA.conflictCycles);
            EXPECT_EQ(gotA.gbFillCycles, wantA.gbFillCycles);
            EXPECT_EQ(gotB.conflictCycles, wantB.conflictCycles);
            EXPECT_EQ(gotB.gbFillCycles, wantB.gbFillCycles);
            if (pick(3) == 0) {
                expectEqual(replayer.drainLayer(), oracleA.drainLayer(),
                            "drainLayer A");
                expectEqual(other.drainLayer(), oracleB.drainLayer(),
                            "drainLayer B");
            }
        }
        expectEqual(replayer.totals(), oracleA.totals(), "totals A");
        expectEqual(other.totals(), oracleB.totals(), "totals B");
    }
}

} // namespace
