/**
 * @file
 * The simulated memory hierarchy every timing model issues its
 * accesses against on a `--mem banked` run: `mem::MemoryModel` is the
 * banked neuron memory (NM), the direct-mapped global buffer (GB) in
 * front of it and the off-chip DRAM channel, as one per-run object.
 * An ideal run (`--mem ideal`, the default) builds no model: a null
 * `MemoryModel *` is the legacy single-cycle-NM assumption, and the
 * timing models skip every call, so those reports stay bit-identical
 * to the pre-hierarchy numbers.
 *
 * The datapath picks the fetch pattern by the call it makes. CNV's
 * sixteen independent per-slice fetch pointers (paper Section 4's
 * contention risk area) replay each window group, one run of bricks
 * per cell, through replayGroup(): fetches that miss the GB contend
 * for NM banks. chargeGroup() adds a replay to a model's counters,
 * so a walk serving several architectures replays once.
 * DaDianNao's single unit-wide pointer issues fetchSequential(),
 * which walks banks in order and never conflicts. Activation
 * footprints past the NM capacity spill to DRAM through
 * dramTransfer().
 *
 * Accounting units: conflict and fill costs are *cycles* added to a
 * window group's runtime; the timing models convert them to idle
 * lane-cycles (every lane waits) and attribute them to the
 * NmBankConflict / GbMiss / DramWait sim::StallReason, so the
 * stalls.total() == laneIdleCycles invariant keeps holding
 * (docs/observability.md, "Stall attribution").
 */

#ifndef CNV_MEM_MEMORY_MODEL_H
#define CNV_MEM_MEMORY_MODEL_H

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace cnv::mem {

/** Which memory backend a run simulates. */
enum class Kind {
    Ideal,  ///< legacy single-cycle NM; no model, every access is free
    Banked, ///< banked NM + global buffer + DRAM channel
};

/** Stable CLI/manifest name of a backend ("ideal" / "banked"). */
const char *kindName(Kind k);

/** Parse a CLI spelling; std::nullopt on anything unknown. */
std::optional<Kind> parseKind(std::string_view name);

/**
 * Default global-buffer capacity in brick lines. One line holds one
 * ZFNAf brick; 4096 lines of 16-neuron bricks are 128 KiB of
 * values — a small shared staging buffer in front of the 4 MiB NM,
 * sized so intra-layer reuse (overlapping windows, repeated filter
 * passes) hits while whole layers do not fit.
 */
inline constexpr std::uint64_t kDefaultGbLines = 4096;

/**
 * Geometry of the simulated hierarchy. `timing::simulateNetwork`
 * derives it from the run's NodeConfig.
 */
struct Geometry
{
    /** NM bank count; a brick at address A lives in bank A % banks. */
    int banks = 0;
    /** Global-buffer capacity in brick lines. */
    std::uint64_t gbLines = kDefaultGbLines;
    /** Off-chip channel bandwidth in bytes per cycle. */
    std::uint64_t dramBytesPerCycle = 0;

    bool operator==(const Geometry &) const = default;
};

/** One cell's brick fetches, in order: brick b reads NM address
 *  `address + b` through lane (lane + b) mod the group's lanes. */
struct Run
{
    std::uint64_t address = 0;
    int lane = 0;
    int bricks = 0;
};

/**
 * What serving one fetch group did in the GB and the NM banks: the
 * outcome of MemoryModel::replayGroup, charged to a model's counters
 * by MemoryModel::chargeGroup.
 */
struct GroupReplay
{
    std::uint64_t gbHits = 0;
    std::uint64_t gbEvictions = 0;
    /** GB misses, each one NM read. */
    std::uint64_t gbMisses = 0;
    /** Cycles serialised on NM bank conflicts. */
    std::uint64_t conflictCycles = 0;
};

/** Extra cycles one fetch group adds to its window group's runtime. */
struct GroupCost
{
    /** Cycles serialised on NM bank conflicts. */
    std::uint64_t conflictCycles = 0;
    /** GB miss-fill cycles not hidden behind the group's compute. */
    std::uint64_t gbFillCycles = 0;
};

/**
 * Cumulative hierarchy counters: per layer in
 * `dadiannao::LayerResult::mem`, per run in
 * `NetworkResult::totalMem()`. All zero on ideal runs.
 */
struct Counters
{
    /** Brick-granular NM reads actually issued (GB hits excluded). */
    std::uint64_t nmAccesses = 0;
    /** Extra cycles lost serialising same-bank fetches. */
    std::uint64_t nmConflictCycles = 0;
    /** Global-buffer hits / misses / capacity evictions. */
    std::uint64_t gbHits = 0;
    std::uint64_t gbMisses = 0;
    std::uint64_t gbEvictions = 0;
    /** Off-chip traffic and the channel cycles it occupied. */
    std::uint64_t dramBytes = 0;
    std::uint64_t dramCycles = 0;

    bool operator==(const Counters &) const = default;

    Counters &
    operator+=(const Counters &o)
    {
        nmAccesses += o.nmAccesses;
        nmConflictCycles += o.nmConflictCycles;
        gbHits += o.gbHits;
        gbMisses += o.gbMisses;
        gbEvictions += o.gbEvictions;
        dramBytes += o.dramBytes;
        dramCycles += o.dramCycles;
        return *this;
    }
};

/**
 * Per-run memory hierarchy. `timing::simulateNetworks` builds one per
 * architecture of each call (one call per (walk group, image) task)
 * and passes it down by pointer, so a model has a single owner, is
 * never shared across threads, and its accounting is deterministic
 * at any --jobs count. It takes no locks.
 */
class MemoryModel
{
  public:
    /** Requires banks > 0, gbLines > 0 and dramBytesPerCycle > 0. */
    explicit MemoryModel(const Geometry &g);

    MemoryModel(const MemoryModel &) = delete;
    MemoryModel &operator=(const MemoryModel &) = delete;

    /** The geometry this model was built with. */
    Geometry geometry() const;

    /**
     * Replay one window group's fetches, run by run, through the GB
     * and the NM banks over `lanes` slice pointers, charging no
     * counter. Each brick is looked up in the GB: a hit is absorbed;
     * a miss is installed (evicting any line resident in its slot)
     * and read from NM. A lane's misses form an in-order stream, so
     * its k-th miss presents in round k; a bank serving n of a
     * round's heads takes n cycles, and the round's conflict cost is
     * its busiest bank's count minus one.
     *
     * The outcome depends only on the geometry, the GB tags and the
     * runs, so it may be charged to any model of the same geometry
     * whose GB holds the same lines, e.g. one drained at the same
     * layer boundary and fed the same runs since.
     */
    GroupReplay replayGroup(std::span<const Run> runs, int lanes);

    /**
     * Add one replay's hits, misses, evictions and conflicts to this
     * model's counters. The GB fill port installs one line per
     * cycle, hidden behind the group's `computeCycles`; only the
     * excess is exposed.
     */
    GroupCost chargeGroup(const GroupReplay &replay,
                          std::uint64_t computeCycles);

    /**
     * Account `reads` NM fetches issued by a single unit-wide
     * pointer (the baseline's sequential walk: one bank per cycle
     * in order, never a conflict, never through the GB).
     */
    void fetchSequential(std::uint64_t reads);

    /**
     * Stream `bytes` over the off-chip channel; returns the channel
     * cycles occupied (bytes over the bandwidth, rounded up). Callers
     * decide whether those cycles are exposed (activation spills) or
     * already overlapped elsewhere (synapse streams timed by the
     * overlap tracker).
     */
    std::uint64_t dramTransfer(std::uint64_t bytes);

    /**
     * Counters accumulated since the previous drain, and start a
     * new layer epoch (the GB is invalidated — one layer's
     * activations never hit on the previous layer's).
     */
    Counters drainLayer();

    /** Whole-run counter totals. */
    Counters totals() const;

  private:
    const std::uint64_t banks_;
    /** banks_ - 1 and gbTag_.size() - 1 when they are powers of two
     *  (every shipped geometry), so address % n is a mask; else 0. */
    const std::uint64_t bankMask_;
    const std::uint64_t slotMask_;
    const std::uint64_t dramBytesPerCycle_;
    /** Resident address per GB slot; kEmpty when the slot is free. */
    std::vector<std::uint64_t> gbTag_;
    /** Counters of the current layer epoch and of drained epochs. */
    Counters layer_;
    Counters drained_;
    /** replayGroup scratch, all zero between calls: each lane's miss
     *  count, the heads per (round, bank) and each round's busiest. */
    std::vector<std::uint32_t> laneMisses_;
    std::vector<std::uint32_t> roundBankHeads_;
    std::vector<std::uint32_t> roundBusiest_;
};

} // namespace cnv::mem

#endif // CNV_MEM_MEMORY_MODEL_H
