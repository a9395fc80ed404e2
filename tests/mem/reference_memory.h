/**
 * @file
 * Naive reference model of the banked memory hierarchy, the oracle
 * mem::MemoryModel is differentially tested against. It is written
 * for obviousness, not speed, and shares no code with the production
 * model: it takes one fetch per brick (expand() unrolls the
 * production model's per-cell runs), the global buffer is a std::map
 * from slot to resident tag, every lane's NM misses queue on their
 * own std::deque and are replayed round by round (each non-empty
 * queue presents its head; a bank with n heads serialises them over
 * n cycles), and the DRAM channel is a ceiling division.
 */

#ifndef CNV_TESTS_MEM_REFERENCE_MEMORY_H
#define CNV_TESTS_MEM_REFERENCE_MEMORY_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "mem/memory_model.h"

namespace cnv::testsupport {

/** One brick fetch: the issuing lane and the NM brick address. */
struct Access
{
    int lane = 0;
    std::uint64_t address = 0;
};

/** The brick fetches of `runs` issued over `lanes` slice pointers, in
 *  order: brick b of a run is its address + b on lane (lane + b) %
 *  lanes. */
inline std::vector<Access>
expand(const std::vector<mem::Run> &runs, int lanes)
{
    std::vector<Access> out;
    for (const mem::Run &r : runs)
        for (int b = 0; b < r.bricks; ++b)
            out.push_back({(r.lane + b) % lanes, r.address + b});
    return out;
}

/** Round-replay oracle with the public calls of mem::MemoryModel. */
class ReferenceMemory
{
  public:
    explicit ReferenceMemory(const mem::Geometry &g) : geo_(g) {}

    mem::GroupCost
    fetchGroup(const std::vector<Access> &group,
               std::uint64_t computeCycles)
    {
        // Global buffer: hits are absorbed, misses queue per lane.
        std::map<int, std::deque<std::uint64_t>> laneBanks;
        std::uint64_t missed = 0;
        for (const Access &a : group) {
            const std::uint64_t slot = a.address % geo_.gbLines;
            const auto resident = gb_.find(slot);
            if (resident != gb_.end() && resident->second == a.address) {
                ++layer_.gbHits;
                continue;
            }
            if (resident != gb_.end())
                ++layer_.gbEvictions;
            gb_[slot] = a.address;
            ++missed;
            laneBanks[a.lane].push_back(
                a.address % static_cast<std::uint64_t>(geo_.banks));
        }

        // Bank arbitration, one round at a time.
        std::uint64_t conflict = 0;
        for (;;) {
            std::map<std::uint64_t, std::uint64_t> headsPerBank;
            for (auto &[lane, banks] : laneBanks) {
                if (banks.empty())
                    continue;
                ++headsPerBank[banks.front()];
                banks.pop_front();
            }
            if (headsPerBank.empty())
                break;
            std::uint64_t busiest = 0;
            for (const auto &[bank, heads] : headsPerBank)
                busiest = std::max(busiest, heads);
            conflict += busiest - 1;
        }

        layer_.gbMisses += missed;
        layer_.nmAccesses += missed;
        layer_.nmConflictCycles += conflict;
        mem::GroupCost cost;
        cost.conflictCycles = conflict;
        cost.gbFillCycles = missed > computeCycles ? missed - computeCycles
                                                   : 0;
        return cost;
    }

    void
    fetchSequential(std::uint64_t reads)
    {
        layer_.nmAccesses += reads;
    }

    std::uint64_t
    dramTransfer(std::uint64_t bytes)
    {
        const std::uint64_t cycles =
            bytes / geo_.dramBytesPerCycle +
            (bytes % geo_.dramBytesPerCycle != 0 ? 1 : 0);
        layer_.dramBytes += bytes;
        layer_.dramCycles += cycles;
        return cycles;
    }

    mem::Counters
    drainLayer()
    {
        const mem::Counters delta = layer_;
        run_ += layer_;
        layer_ = {};
        gb_.clear();
        return delta;
    }

    mem::Counters
    totals() const
    {
        mem::Counters c = run_;
        c += layer_;
        return c;
    }

  private:
    mem::Geometry geo_;
    std::map<std::uint64_t, std::uint64_t> gb_;
    mem::Counters layer_;
    mem::Counters run_;
};

} // namespace cnv::testsupport

#endif // CNV_TESTS_MEM_REFERENCE_MEMORY_H
