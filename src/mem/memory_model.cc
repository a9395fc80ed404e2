#include "mem/memory_model.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "sim/logging.h"

namespace cnv::mem {

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Ideal: return "ideal";
      case Kind::Banked: return "banked";
    }
    CNV_FATAL("unknown mem::Kind value {}", static_cast<int>(k));
}

std::optional<Kind>
parseKind(std::string_view name)
{
    if (name == "ideal")
        return Kind::Ideal;
    if (name == "banked")
        return Kind::Banked;
    return std::nullopt;
}

namespace {

/** Sentinel tag for an unoccupied GB slot. */
constexpr std::uint64_t kEmpty = std::numeric_limits<std::uint64_t>::max();

/** n - 1 for a power of two n, else 0 (see wrap()). */
std::uint64_t
maskOf(std::uint64_t n)
{
    return std::has_single_bit(n) ? n - 1 : 0;
}

/** a % n, as a mask when maskOf(n) has one. */
std::uint64_t
wrap(std::uint64_t a, std::uint64_t n, std::uint64_t mask)
{
    return mask != 0 ? a & mask : a % n;
}

} // namespace

MemoryModel::MemoryModel(const Geometry &g)
    : banks_(static_cast<std::uint64_t>(g.banks)),
      bankMask_(maskOf(banks_)),
      slotMask_(maskOf(g.gbLines)),
      dramBytesPerCycle_(g.dramBytesPerCycle)
{
    CNV_ASSERT(g.banks > 0, "banked memory model needs a bank count");
    CNV_ASSERT(g.dramBytesPerCycle > 0,
               "banked memory model needs a DRAM bandwidth");
    CNV_ASSERT(g.gbLines > 0,
               "banked memory model needs a global-buffer capacity");
    gbTag_.assign(static_cast<std::size_t>(g.gbLines), kEmpty);
}

Geometry
MemoryModel::geometry() const
{
    Geometry g;
    g.banks = static_cast<int>(banks_);
    g.gbLines = gbTag_.size();
    g.dramBytesPerCycle = dramBytesPerCycle_;
    return g;
}

GroupReplay
MemoryModel::replayGroup(std::span<const Run> runs, int lanes)
{
    const auto laneCount = static_cast<std::size_t>(lanes);
    laneMisses_.resize(std::max(laneMisses_.size(), laneCount));
    const std::uint64_t lines = gbTag_.size();
    // Local tallies: a member counter would be reloaded after every
    // tag store, which may alias it.
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t missed = 0;
    std::size_t rounds = 0;
    for (const Run &run : runs) {
        CNV_ASSERT(run.lane >= 0 && run.lane < lanes,
                   "fetch lane {} out of range", run.lane);
        auto lane = static_cast<std::size_t>(run.lane);
        // A run whose tags all match hits in full and changes nothing.
        const std::uint64_t end =
            run.address + static_cast<std::uint64_t>(run.bricks);
        std::uint64_t diff = 0;
        for (std::uint64_t a = run.address; a < end; ++a)
            diff |= gbTag_[wrap(a, lines, slotMask_)] ^ a;
        if (diff == 0) {
            hits += end - run.address;
            continue;
        }

        for (std::uint64_t a = run.address; a < end; ++a) {
            std::uint64_t &tag = gbTag_[wrap(a, lines, slotMask_)];
            if (tag == a) {
                ++hits;
            } else {
                evictions += tag != kEmpty;
                tag = a;
                ++missed;
                // The miss is the next fetch of its lane's slice
                // pointer: the k-th one presents its bank in round k.
                const std::size_t round = laneMisses_[lane]++;
                if (round == rounds && ++rounds > roundBusiest_.size()) {
                    roundBusiest_.resize(rounds, 0);
                    roundBankHeads_.resize(rounds * banks_, 0);
                }
                std::uint32_t &heads =
                    roundBankHeads_[round * banks_ +
                                    wrap(a, banks_, bankMask_)];
                roundBusiest_[round] = std::max(roundBusiest_[round], ++heads);
            }
            if (++lane == laneCount)
                lane = 0;
        }
    }

    // A round takes its busiest bank's head count in cycles instead
    // of one; the excess is the conflict cost.
    std::uint64_t conflict = 0;
    for (std::size_t r = 0; r < rounds; ++r)
        conflict += roundBusiest_[r] - 1;
    std::fill_n(laneMisses_.begin(), laneCount, 0);
    std::fill_n(roundBusiest_.begin(), rounds, 0);
    std::fill_n(roundBankHeads_.begin(), rounds * banks_, 0);

    return {hits, evictions, missed, conflict};
}

GroupCost
MemoryModel::chargeGroup(const GroupReplay &replay,
                         std::uint64_t computeCycles)
{
    layer_.gbHits += replay.gbHits;
    layer_.gbEvictions += replay.gbEvictions;
    layer_.gbMisses += replay.gbMisses;
    layer_.nmAccesses += replay.gbMisses;
    layer_.nmConflictCycles += replay.conflictCycles;
    GroupCost cost;
    cost.conflictCycles = replay.conflictCycles;
    if (replay.gbMisses > computeCycles)
        cost.gbFillCycles = replay.gbMisses - computeCycles;
    return cost;
}

void
MemoryModel::fetchSequential(std::uint64_t reads)
{
    layer_.nmAccesses += reads;
}

std::uint64_t
MemoryModel::dramTransfer(std::uint64_t bytes)
{
    const std::uint64_t busy =
        (bytes + dramBytesPerCycle_ - 1) / dramBytesPerCycle_;
    layer_.dramBytes += bytes;
    layer_.dramCycles += busy;
    return busy;
}

Counters
MemoryModel::drainLayer()
{
    drained_ += layer_;
    std::fill(gbTag_.begin(), gbTag_.end(), kEmpty);
    return std::exchange(layer_, Counters{});
}

Counters
MemoryModel::totals() const
{
    Counters c = drained_;
    c += layer_;
    return c;
}

} // namespace cnv::mem
