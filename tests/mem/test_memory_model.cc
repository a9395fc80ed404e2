/**
 * @file
 * Tests for mem::MemoryModel through its public calls: hand-worked
 * bank-conflict cases (a 4-bank example, all lanes on one bank,
 * distinct banks), global-buffer hits, misses and evictions, fill
 * hiding behind compute, per-layer drain epochs, the conflict-free
 * sequential walk and one replay charged to two models; then seeded
 * randomised differential tests against the naive round-replay
 * oracle in reference_memory.h, through fetchGroup and through a
 * replay shared by two charged models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "mem/memory_model.h"
#include "mem/reference_memory.h"

namespace {

using namespace cnv;
using mem::Access;

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
    EXPECT_EQ(model.fetchGroup(group, 6).conflictCycles, 2u);
    EXPECT_EQ(model.totals().nmAccesses, 6u);
    EXPECT_EQ(model.totals().nmConflictCycles, 2u);
}

TEST(MemoryModel, AllLanesOnOneBankSerialiseFully)
{
    mem::MemoryModel model(geometry(4));
    // Three lanes, three addresses, all mapping to bank 0: the bank
    // serves them over 3 cycles, 2 of which are conflict cost.
    const std::vector<Access> group = {{0, 0}, {1, 4}, {2, 8}};
    EXPECT_EQ(model.fetchGroup(group, 3).conflictCycles, 2u);
}

TEST(MemoryModel, DistinctBanksNeverConflict)
{
    mem::MemoryModel model(geometry(4));
    const std::vector<Access> group = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
    EXPECT_EQ(model.fetchGroup(group, 4).conflictCycles, 0u);
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
    model.fetchGroup(std::vector<Access>{{0, 0}, {1, 1}}, 0);
    EXPECT_EQ(model.totals().gbMisses, 2u);

    // Warm: the same addresses hit and never reach the NM.
    const mem::GroupCost warm =
        model.fetchGroup(std::vector<Access>{{0, 0}, {1, 1}}, 0);
    EXPECT_EQ(warm.conflictCycles + warm.gbFillCycles, 0u);
    EXPECT_EQ(model.totals().gbHits, 2u);
    EXPECT_EQ(model.totals().nmAccesses, 2u);

    // Address 2 maps to slot 0 (2 % 2) and evicts resident line 0,
    // so line 0 misses again.
    model.fetchGroup(std::vector<Access>{{0, 2}}, 0);
    EXPECT_EQ(model.totals().gbEvictions, 1u);
    model.fetchGroup(std::vector<Access>{{0, 0}}, 0);
    EXPECT_EQ(model.totals().gbMisses, 4u);
    EXPECT_EQ(model.totals().gbEvictions, 2u);

    // A drain invalidates: line 1 is cold again, and its slot was
    // emptied rather than evicted.
    model.drainLayer();
    model.fetchGroup(std::vector<Access>{{0, 1}}, 0);
    EXPECT_EQ(model.totals().gbMisses, 5u);
    EXPECT_EQ(model.totals().gbEvictions, 2u);
}

TEST(MemoryModel, FiltersThroughGbAndHidesFills)
{
    mem::MemoryModel model(geometry(4, /*gbLines=*/16));

    // Cold group: 2 misses, both on bank 0 (+1 conflict); with no
    // compute to hide behind, both fill cycles are exposed.
    const std::vector<Access> group = {{0, 0}, {1, 4}};
    mem::GroupCost cost = model.fetchGroup(group, /*computeCycles=*/0);
    EXPECT_EQ(cost.conflictCycles, 1u);
    EXPECT_EQ(cost.gbFillCycles, 2u);

    // Warm group: every fetch hits the GB — no NM traffic, no cost.
    cost = model.fetchGroup(group, 0);
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
    cost = model.fetchGroup(group, 1);
    EXPECT_EQ(cost.gbFillCycles, 1u);
    model.drainLayer();
    cost = model.fetchGroup(group, 8);
    EXPECT_EQ(cost.gbFillCycles, 0u); // hidden behind compute
    EXPECT_EQ(model.totals().gbMisses, 6u);
}

TEST(MemoryModel, DrainReturnsEpochDeltas)
{
    mem::MemoryModel model(geometry(4, 16));
    model.fetchGroup(std::vector<Access>{{0, 0}, {1, 4}}, 0);
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
    // at two compute budgets: each model sees what its own
    // fetchGroup would have returned and counted.
    const std::vector<Access> group = {{0, 0}, {1, 4}};
    mem::MemoryModel replayer(geometry(4, /*gbLines=*/16));
    mem::MemoryModel other(geometry(4, /*gbLines=*/16));
    const mem::GroupReplay replay = replayer.replayGroup(group);
    EXPECT_EQ(replay.gbMisses, 2u);
    EXPECT_EQ(replay.conflictCycles, 1u);
    const mem::GroupCost a = replayer.chargeGroup(replay, 0);
    const mem::GroupCost b = other.chargeGroup(replay, 1);

    mem::MemoryModel directA(geometry(4, 16));
    mem::MemoryModel directB(geometry(4, 16));
    const mem::GroupCost wantA = directA.fetchGroup(group, 0);
    const mem::GroupCost wantB = directB.fetchGroup(group, 1);
    EXPECT_EQ(a.conflictCycles, wantA.conflictCycles);
    EXPECT_EQ(a.gbFillCycles, 2u);
    EXPECT_EQ(a.gbFillCycles, wantA.gbFillCycles);
    EXPECT_EQ(b.conflictCycles, wantB.conflictCycles);
    EXPECT_EQ(b.gbFillCycles, 1u);
    EXPECT_EQ(b.gbFillCycles, wantB.gbFillCycles);
    EXPECT_EQ(replayer.totals(), directA.totals());
    EXPECT_EQ(other.totals(), directB.totals());
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

TEST(MemoryModel, MatchesRoundReplayOracleOnRandomGroups)
{
    const int bankChoices[] = {1, 3, 4, 16, 64};
    // 3 and 1000 are not powers of two: their slots take the % path.
    const std::uint64_t gbChoices[] = {1, 2, 3, 16, 1000, 4096};
    // Address ranges from "everything collides" to "nothing reuses".
    const std::uint64_t spanChoices[] = {8, 256, 8192, 1u << 20};
    std::mt19937_64 rng(17);
    const auto pick = [&](std::uint64_t n) { return rng() % n; };

    for (int c = 0; c < 200; ++c) {
        const mem::Geometry g =
            geometry(bankChoices[pick(5)], gbChoices[pick(6)],
                     1 + pick(64));
        const int lanes = 1 + static_cast<int>(pick(16));
        const std::uint64_t span = spanChoices[pick(4)];
        SCOPED_TRACE(testing::Message()
                     << "case " << c << ": banks " << g.banks
                     << ", lanes " << lanes << ", gbLines " << g.gbLines
                     << ", span " << span);

        mem::MemoryModel model(g);
        testsupport::ReferenceMemory oracle(g);
        std::vector<Access> group;
        const int groups = 1 + static_cast<int>(pick(6));
        for (int k = 0; k < groups; ++k) {
            group.resize(pick(2001));
            for (Access &a : group) {
                a.lane = static_cast<int>(pick(lanes));
                a.address = pick(span);
            }
            const std::uint64_t compute = pick(group.size() + 2);
            const mem::GroupCost got = model.fetchGroup(group, compute);
            const mem::GroupCost want = oracle.fetchGroup(group, compute);
            EXPECT_EQ(got.conflictCycles, want.conflictCycles);
            EXPECT_EQ(got.gbFillCycles, want.gbFillCycles);

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
    // budget; each must match a round-replay oracle fed the group
    // through fetchGroup at that budget.
    const int bankChoices[] = {1, 3, 4, 16, 64};
    const std::uint64_t gbChoices[] = {1, 2, 3, 16, 1000, 4096};
    const std::uint64_t spanChoices[] = {8, 256, 8192, 1u << 20};
    std::mt19937_64 rng(27);
    const auto pick = [&](std::uint64_t n) { return rng() % n; };

    for (int c = 0; c < 200; ++c) {
        const mem::Geometry g =
            geometry(bankChoices[pick(5)], gbChoices[pick(6)],
                     1 + pick(64));
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
        std::vector<Access> group;
        const int groups = 1 + static_cast<int>(pick(6));
        for (int k = 0; k < groups; ++k) {
            group.resize(pick(2001));
            for (Access &a : group) {
                a.lane = static_cast<int>(pick(lanes));
                a.address = pick(span);
            }
            const std::uint64_t computeA = pick(group.size() + 2);
            const std::uint64_t computeB = pick(group.size() + 2);
            const mem::GroupReplay replay = replayer.replayGroup(group);
            const mem::GroupCost gotA = replayer.chargeGroup(replay, computeA);
            const mem::GroupCost gotB = other.chargeGroup(replay, computeB);
            const mem::GroupCost wantA = oracleA.fetchGroup(group, computeA);
            const mem::GroupCost wantB = oracleB.fetchGroup(group, computeB);
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
