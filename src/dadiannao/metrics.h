/**
 * @file
 * Result records shared by both accelerator models.
 *
 * Activity follows the paper's Figure 10 metric: one event per
 * (unit, neuron lane, cycle), each assigned to exactly one category,
 * so the event total units x lanes x cycles is directly proportional
 * to execution time.
 */

#ifndef CNV_DADIANNAO_METRICS_H
#define CNV_DADIANNAO_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory_model.h"
#include "sim/stall_profile.h"

namespace cnv::dadiannao {

/** Per-lane-cycle activity categories (Figure 10). */
struct Activity
{
    std::uint64_t other = 0;    ///< non-convolutional layers
    std::uint64_t conv1 = 0;    ///< first convolutional layer
    std::uint64_t zero = 0;     ///< processing a zero neuron
    std::uint64_t nonZero = 0;  ///< processing a non-zero neuron
    std::uint64_t stall = 0;    ///< idle waiting for window sync

    std::uint64_t
    total() const
    {
        return other + conv1 + zero + nonZero + stall;
    }

    bool operator==(const Activity &) const = default;

    Activity &
    operator+=(const Activity &o)
    {
        other += o.other;
        conv1 += o.conv1;
        zero += o.zero;
        nonZero += o.nonZero;
        stall += o.stall;
        return *this;
    }
};

/** Hardware event counters feeding the energy model. */
struct EnergyCounters
{
    /** 16-synapse SB sublane reads (suppressed when a subunit stalls). */
    std::uint64_t sbReads = 0;
    /** 16-neuron-wide NM reads (CNV reads carry offsets too). */
    std::uint64_t nmReads = 0;
    /** 16-neuron-wide NM writes (via NBout / encoder). */
    std::uint64_t nmWrites = 0;
    /** NBin entry reads (one neuron or one (neuron, offset) pair). */
    std::uint64_t nbinReads = 0;
    /** NBin entry writes. */
    std::uint64_t nbinWrites = 0;
    /** Multiplications actually performed. */
    std::uint64_t multOps = 0;
    /** Adder-tree reduction operations (per product). */
    std::uint64_t addOps = 0;
    /** Encoder neuron examinations (CNV only). */
    std::uint64_t encoderOps = 0;
    /** Bytes streamed from off-chip memory. */
    std::uint64_t offchipBytes = 0;

    bool operator==(const EnergyCounters &) const = default;

    EnergyCounters &
    operator+=(const EnergyCounters &o)
    {
        sbReads += o.sbReads;
        nmReads += o.nmReads;
        nmWrites += o.nmWrites;
        nbinReads += o.nbinReads;
        nbinWrites += o.nbinWrites;
        multOps += o.multOps;
        addOps += o.addOps;
        encoderOps += o.encoderOps;
        offchipBytes += o.offchipBytes;
        return *this;
    }
};

/**
 * Per-layer microarchitecture occupancy detail (observability).
 *
 * Lane counts are per unit (multiply by the unit count for node
 * totals) and partition each layer's cycles: busy + idle =
 * cycles x lanes wherever the producer models lanes. Encoder fields
 * are populated for CNV encoded layers; the brick-buffer occupancy
 * fields only by the structural dispatcher pipeline (the fast
 * models assume perfect prefetch and do not sample the BB).
 */
struct MicroTrace
{
    /** Lane-cycles spent draining (value, offset) pairs or blocks. */
    std::uint64_t laneBusyCycles = 0;
    /** Lane-cycles idle at window-group synchronisation points. */
    std::uint64_t laneIdleCycles = 0;
    /** The same idle lane-cycles, attributed to stall reasons:
     *  stalls.total() == laneIdleCycles wherever both are filled
     *  (enforced by tests/analysis/test_trace_pipeline.cc). */
    sim::StallCycles stalls;
    /** Cycles the encoder spent converting output bricks (serial). */
    std::uint64_t encoderBusyCycles = 0;
    /** ZFNAf output bricks produced by the encoder. */
    std::uint64_t encoderBricks = 0;
    /** Dispatcher brick-buffer entries occupied, summed per cycle. */
    std::uint64_t bbOccupancySum = 0;
    /** Cycles over which the brick buffer was sampled. */
    std::uint64_t bbSampleCycles = 0;

    /** Fraction of lane-cycles doing work (1.0 when lock-step). */
    double
    laneUtilisation() const
    {
        const std::uint64_t total = laneBusyCycles + laneIdleCycles;
        return total ? static_cast<double>(laneBusyCycles) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Mean brick-buffer occupancy over the sampled cycles. */
    double
    meanBbOccupancy() const
    {
        return bbSampleCycles ? static_cast<double>(bbOccupancySum) /
                                    static_cast<double>(bbSampleCycles)
                              : 0.0;
    }

    bool operator==(const MicroTrace &) const = default;

    MicroTrace &
    operator+=(const MicroTrace &o)
    {
        laneBusyCycles += o.laneBusyCycles;
        laneIdleCycles += o.laneIdleCycles;
        stalls += o.stalls;
        encoderBusyCycles += o.encoderBusyCycles;
        encoderBricks += o.encoderBricks;
        bbOccupancySum += o.bbOccupancySum;
        bbSampleCycles += o.bbSampleCycles;
        return *this;
    }
};

/** Timing/activity result for one layer on one architecture. */
struct LayerResult
{
    std::string name;
    std::uint64_t cycles = 0;
    /**
     * First cycle of the layer on the run's serialized timeline
     * (cumulative over the preceding layers; overlap with off-chip
     * loads is already folded into each layer's exposed cycles).
     * Stamped by NetworkResult::stampTimeline().
     */
    std::uint64_t startCycle = 0;
    Activity activity;
    EnergyCounters energy;
    MicroTrace micro;
    /** Memory-hierarchy counters (all zero unless `--mem banked`). */
    mem::Counters mem;

    bool operator==(const LayerResult &) const = default;
};

/** Whole-network result. */
struct NetworkResult
{
    std::string network;
    std::string architecture;
    /**
     * True when the run simulated the memory hierarchy (`--mem
     * banked`): per-layer mem counters are meaningful and the
     * reports emit the memory blocks. False keeps every report
     * byte-identical to a pre-mem build.
     */
    bool memModelled = false;
    std::vector<LayerResult> layers;

    std::uint64_t
    totalCycles() const
    {
        std::uint64_t total = 0;
        for (const LayerResult &l : layers)
            total += l.cycles;
        return total;
    }

    Activity
    totalActivity() const
    {
        Activity a;
        for (const LayerResult &l : layers)
            a += l.activity;
        return a;
    }

    EnergyCounters
    totalEnergy() const
    {
        EnergyCounters e;
        for (const LayerResult &l : layers)
            e += l.energy;
        return e;
    }

    MicroTrace
    totalMicro() const
    {
        MicroTrace m;
        for (const LayerResult &l : layers)
            m += l.micro;
        return m;
    }

    mem::Counters
    totalMem() const
    {
        mem::Counters m;
        for (const LayerResult &l : layers)
            m += l.mem;
        return m;
    }

    /**
     * Assign each layer's startCycle as the cumulative sum of the
     * preceding layers' cycles (the serialized run timeline). Called
     * by the network-level model builders once all layers exist.
     */
    void
    stampTimeline()
    {
        std::uint64_t now = 0;
        for (LayerResult &l : layers) {
            l.startCycle = now;
            now += l.cycles;
        }
    }
};

} // namespace cnv::dadiannao

#endif // CNV_DADIANNAO_METRICS_H
