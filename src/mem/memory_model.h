/**
 * @file
 * The memory-hierarchy interface every timing model issues its
 * accesses against: `mem::MemoryModel` abstracts the banked neuron
 * memory (mem::BankedNm), the shared global buffer
 * (mem::GlobalBuffer) and the off-chip DRAM channel
 * (mem::DramChannel) behind one per-run object carried in
 * `timing::RunOptions`.
 *
 * Two backends exist. The `ideal` backend (the registry default) is
 * the legacy single-cycle-NM assumption: every call is a no-op, so
 * reports are bit-identical to the pre-refactor numbers. The
 * `banked` backend (`--mem banked`) models CNV's sixteen
 * independent per-slice fetch pointers vs DaDianNao's single
 * unit-wide pointer (paper Section 4's contention risk area): brick
 * fetches that miss the global buffer contend for NM banks, and
 * activation footprints past the NM capacity spill to DRAM.
 *
 * Accounting units: conflict and fill costs are *cycles* added to a
 * window group's runtime; the timing models convert them to idle
 * lane-cycles (every lane waits) and attribute them to the
 * `nm_bank_conflict` / `gb_miss` / `dram_wait` stall reasons, so
 * the stalls.total() == laneIdleCycles invariant keeps holding
 * (docs/observability.md, "Stall attribution").
 */

#ifndef CNV_MEM_MEMORY_MODEL_H
#define CNV_MEM_MEMORY_MODEL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace cnv::mem {

/** Which memory backend a run simulates. */
enum class Kind {
    Ideal,  ///< legacy single-cycle NM; every access is free
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
 * derives it from the run's NodeConfig and conv datapath.
 */
struct Geometry
{
    /** NM bank count (must be positive). */
    int banks = 0;
    /**
     * True when every lane advances its own slice fetch pointer
     * (CNV, Section 4); false for the baseline's single unit-wide
     * pointer, which walks banks in order and cannot conflict.
     */
    bool slicedFetch = false;
    /** NM capacity in bytes (activation working set per layer). */
    std::uint64_t nmBytes = 0;
    /** Global-buffer capacity in brick lines. */
    std::uint64_t gbLines = kDefaultGbLines;
    /** Off-chip channel bandwidth in bytes per cycle. */
    std::uint64_t dramBytesPerCycle = 0;
};

/** One brick fetch: the issuing lane and the NM brick address. */
struct Access
{
    int lane = 0;
    std::uint64_t address = 0;
};

/** Extra cycles one fetch group adds to its window group's runtime. */
struct GroupCost
{
    /** Cycles serialised on NM bank conflicts. */
    std::uint64_t conflictCycles = 0;
    /** GB miss-fill cycles not hidden behind the group's compute. */
    std::uint64_t gbFillCycles = 0;
};

/** Cumulative hierarchy counters (per layer or whole run). */
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
 * Per-run memory hierarchy. One instance is created per
 * `timing::simulateNetwork` call (i.e. per (architecture, image)
 * task), so the parallel runtime never shares one across threads
 * and conflict accounting stays deterministic at any --jobs count;
 * the components still lock internally so a model outliving that
 * contract stays race-free.
 */
class MemoryModel
{
  public:
    virtual ~MemoryModel() = default;

    /** Which backend this is. */
    virtual Kind kind() const = 0;

    /**
     * Serve one window group's synchronised brick fetches. The
     * group's accesses are filtered through the global buffer, the
     * misses contend for NM banks, and the returned costs are the
     * cycles the group's runtime grows by. `computeCycles` is the
     * group's compute time, behind which GB miss fills can hide.
     */
    virtual GroupCost fetchGroup(const std::vector<Access> &group,
                                 std::uint64_t computeCycles) = 0;

    /**
     * Account `reads` NM fetches issued by a single unit-wide
     * pointer (the baseline's sequential walk: one bank per cycle
     * in order, never a conflict, never through the GB).
     */
    virtual void fetchSequential(std::uint64_t reads) = 0;

    /**
     * Stream `bytes` over the off-chip channel; returns the channel
     * cycles occupied. Callers decide whether those cycles are
     * exposed (activation spills) or already overlapped elsewhere
     * (synapse streams timed by the overlap tracker).
     */
    virtual std::uint64_t dramTransfer(std::uint64_t bytes) = 0;

    /**
     * Counters accumulated since the previous drain, and start a
     * new layer epoch (the global buffer is invalidated — one
     * layer's activations never hit on the previous layer's).
     */
    virtual Counters drainLayer() = 0;

    /** Whole-run counter totals. */
    virtual Counters totals() const = 0;
};

/**
 * Build a backend. Kind::Ideal ignores the geometry; Kind::Banked
 * requires banks > 0 and dramBytesPerCycle > 0.
 */
std::unique_ptr<MemoryModel> makeMemoryModel(Kind k, const Geometry &g);

} // namespace cnv::mem

#endif // CNV_MEM_MEMORY_MODEL_H
