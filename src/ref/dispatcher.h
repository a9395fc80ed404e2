/**
 * @file
 * Cycle-level model of the CNV Dispatcher (Section IV-B3).
 *
 * The NM's subarrays are grouped into 16 independent banks; the
 * input-neuron slices are statically distributed one per bank. The
 * dispatcher holds a 16-entry Brick Buffer (BB): entry i accepts
 * 16-neuron-wide bricks from bank i and broadcasts one
 * (value, offset) pair per cycle to neuron lane i of every unit.
 * Because lanes drain at different rates, each bank keeps its own
 * fetch pointer, and the next brick in processing order is
 * prefetched as early as the BB slot allows, hiding NM latency. In
 * the worst case (all-zero bricks) a bank must supply one brick per
 * cycle — the banks are sub-banked to sustain exactly that.
 *
 * This component exists to validate the timing assumptions baked
 * into the fast models (ref/cnv_unit.cc and timing/conv_model.cc):
 * with the default double-buffered BB the dispatcher reproduces
 * their per-lane drain times exactly, and tests also show where
 * extra NM latency would start to leak stalls.
 */

#ifndef CNV_REF_DISPATCHER_H
#define CNV_REF_DISPATCHER_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ref/engine.h"
#include "ref/geometry.h"
#include "sim/stats.h"
#include "sim/trace_event.h"
#include "zfnaf/format.h"

namespace cnv::ref {

/** One (value, offset) pair broadcast to a neuron lane. */
struct DispatchedNeuron
{
    tensor::Fixed16 value;
    std::uint8_t offset = 0;
    /** Sequence number of the source brick within the lane. */
    std::uint32_t brickSeq = 0;
};

/** A brick in a lane's processing order (owned copies for the sim). */
using BrickData = std::vector<zfnaf::EncodedNeuron>;

/** Configuration of the dispatcher/NM-bank model. */
struct DispatcherConfig
{
    int lanes = kPaperLanes;
    /** NM bank access latency in cycles. */
    int nmLatencyCycles = 2;
    /** Bricks a BB entry can hold (current + prefetched). */
    int bbDepth = 2;
    /** An all-zero brick occupies the lane for one cycle. */
    bool emptyBrickCostsCycle = true;
};

/**
 * The dispatcher plus its NM banks. Construct with each lane's
 * brick sequence (the slice contents in processing order), then run
 * under an Engine; collects every broadcast pair per lane.
 */
class Dispatcher : public Clocked
{
  public:
    Dispatcher(const DispatcherConfig &cfg,
               std::vector<std::deque<BrickData>> laneBricks);

    void evaluate(Cycle cycle) override;
    void commit(Cycle cycle) override;
    bool done() const override;

    /** Everything broadcast to a lane, in order. */
    const std::vector<DispatchedNeuron> &broadcasts(int lane) const;

    /** Cycles lane i spent waiting on an NM fetch with bricks left. */
    std::uint64_t stallCycles(int lane) const { return stalls_[lane]; }

    /** Cycles lane i sat drained while other lanes still worked. */
    std::uint64_t drainedCycles(int lane) const { return drained_[lane]; }

    /** Cycles lane i broadcast a pair (or consumed an empty brick). */
    std::uint64_t busyCycles(int lane) const { return busy_[lane]; }

    /** stallCycles summed over lanes (StallReason::BrickBufferEmpty). */
    std::uint64_t idleBrickBufferEmpty() const;

    /** drainedCycles summed over lanes (StallReason::SliceDrained). */
    std::uint64_t idleSliceDrained() const;

    /** 16-neuron-wide NM reads issued (one per brick fetch). */
    std::uint64_t nmReads() const { return nmReads_; }

    /** BB entries occupied, summed over every sampled cycle. */
    std::uint64_t bbOccupancySum() const { return bbOccupancySum_; }

    /** Cycles over which the BB occupancy was sampled. */
    std::uint64_t bbSampleCycles() const { return bbSampleCycles_; }

    /** Mean bricks resident in the BB while the dispatcher ran. */
    double meanBbOccupancy() const;

    /**
     * Register this dispatcher's observability statistics as a
     * nested "dispatcher" group of @p parent (formulas reading the
     * live counters — see docs/observability.md for the pattern).
     * The dispatcher must outlive the group.
     */
    void attachStats(sim::StatGroup &parent) const;

    /**
     * Stream this dispatcher's activity into @p sink: one trace
     * thread per lane (tid = @p laneTidBase + lane) carrying
     * coalesced busy spans (cat "lane") and idle spans (cat "stall",
     * named after their sim::StallReason, tagged with @p layerLabel),
     * plus a "bbOccupancy" counter on (pid, tid 0) emitted whenever
     * the total resident-brick count changes. Call before running;
     * call flushTrace() once the engine stops to close open spans.
     */
    void setTrace(sim::TraceSink *sink, std::uint32_t pid,
                  std::uint32_t laneTidBase, std::string layerLabel);

    /** Close open spans and finish the occupancy ramp at @p end. */
    void flushTrace(Cycle end);

  private:
    /** What a lane did during one active cycle. */
    enum class LaneState { None, Busy, BbEmpty, Drained };

    void traceLane(int lane, LaneState state, Cycle cycle);

    DispatcherConfig cfg_;
    /** Per-bank bricks not yet delivered, in processing order. */
    std::vector<std::deque<BrickData>> pendingBricks_;
    /** Per-lane BB contents (up to bbDepth bricks). */
    std::vector<std::deque<BrickData>> bb_;
    /** Read position within the current brick per lane. */
    std::vector<std::size_t> cursor_;
    /** Completion times of each bank's in-flight fetches. */
    std::vector<std::deque<Cycle>> inflight_;
    std::vector<std::vector<DispatchedNeuron>> out_;
    std::vector<std::uint64_t> stalls_;
    std::vector<std::uint64_t> drained_;
    std::vector<std::uint64_t> busy_;
    std::vector<std::uint32_t> brickSeq_;
    std::uint64_t nmReads_ = 0;
    std::uint64_t bbOccupancySum_ = 0;
    std::uint64_t bbSampleCycles_ = 0;

    sim::TraceSink *trace_ = nullptr;
    std::uint32_t tracePid_ = 0;
    std::uint32_t traceTidBase_ = 0;
    std::string traceLayer_;
    /** Per-lane open-run state and its first cycle. */
    std::vector<LaneState> runState_;
    std::vector<Cycle> runStart_;
    /** Last bbOccupancy counter value emitted (-1 = none yet). */
    std::int64_t lastOccupancy_ = -1;
    /** Most recent sampled (active) cycle, so trace spans close on
     *  the same boundary the busy/stall/drained counters stop at. */
    Cycle lastSampled_ = 0;
};

} // namespace cnv::ref

#endif // CNV_REF_DISPATCHER_H
