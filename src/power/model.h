/**
 * @file
 * Area and energy models (Sections V-C and V-D). An architecture
 * enters only through its power::Scales record: the baseline node is
 * the default (all 1.0), CNV and Cnvlutin2 are kCnvScales and
 * kCnv2Scales.
 *
 * The paper measured area and power from synthesized Verilog (TSMC
 * 65nm, Synopsys DC), Artisan register-file compilers, and the
 * Destiny eDRAM model. This library substitutes a component-level
 * model: per-component areas and per-event/static energies are
 * constants calibrated once against the paper's published
 * breakdowns (Figures 11 and 12), with all *activity* — SB reads
 * suppressed during stalls, NM accesses, multiplications, encoder
 * work — coming from the simulators' event counters. Relative
 * results (the paper's claims) therefore emerge from simulation;
 * only the absolute scale is calibrated. See DESIGN.md.
 */

#ifndef CNV_POWER_MODEL_H
#define CNV_POWER_MODEL_H

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"

namespace cnv::power {

/** Component areas in mm^2 (65nm node). */
struct AreaBreakdown
{
    double sb = 0.0;     ///< 32MB filter storage (eDRAM)
    double nm = 0.0;     ///< central Neuron Memory (eDRAM)
    double logic = 0.0;  ///< datapath, control, dispatcher, encoder
    double sram = 0.0;   ///< NBin/NBout (+ offset buffers in CNV)

    double total() const { return sb + nm + logic + sram; }
};

/** Per-component power in watts, split static/dynamic. */
struct PowerBreakdown
{
    double sbStatic = 0.0, sbDynamic = 0.0;
    double nmStatic = 0.0, nmDynamic = 0.0;
    double logicStatic = 0.0, logicDynamic = 0.0;
    double sramStatic = 0.0, sramDynamic = 0.0;

    double
    staticTotal() const
    {
        return sbStatic + nmStatic + logicStatic + sramStatic;
    }

    double
    dynamicTotal() const
    {
        return sbDynamic + nmDynamic + logicDynamic + sramDynamic;
    }

    double total() const { return staticTotal() + dynamicTotal(); }
};

/** Energy/delay metrics for one run. */
struct RunMetrics
{
    double seconds = 0.0;
    double joules = 0.0;
    double watts = 0.0;
    /**
     * The paper computes "EDP" as average-power x delay (= energy)
     * and "ED^2P" as average-power x delay^2 (= energy x delay); we
     * follow the same arithmetic so ratios are comparable
     * (Figure 13; see EXPERIMENTS.md).
     */
    double edp = 0.0;
    double ed2p = 0.0;
};

/** Calibrated model parameters (defaults reproduce the paper). */
struct PowerParams
{
    // --- Areas (mm^2), baseline node ---
    double sbArea = 44.0;
    double nmArea = 6.0;
    double logicArea = 12.0;
    double sramArea = 5.6;

    // --- Dynamic energies (picojoules per event) ---
    double sbReadPj = 48.0;       ///< 16-synapse (256-bit) eDRAM read
    double nmAccessPj = 60.0;     ///< 16-neuron NM read or write
    double nbinAccessPj = 1.1;    ///< NBin/NBout entry access
    double multPj = 0.5;          ///< 16-bit multiply
    double addPj = 0.25;          ///< adder-tree add
    double encoderPj = 0.35;     ///< encoder neuron examination
    double offchipPjPerByte = 20.0; ///< reported, not in chip power

    // --- Static power (watts), baseline node ---
    double sbStaticW = 1.00;
    double nmStaticW = 2.40;
    double logicStaticW = 0.25;
    double sramStaticW = 0.30;

    double clockGhz = 1.0;
};

/**
 * One architecture's component scale factors relative to the
 * baseline node. The defaults (all 1.0) are the DaDianNao baseline,
 * so scaling it is exact.
 */
struct Scales
{
    double nmArea = 1.0;          ///< NM capacity + banking area
    double sramArea = 1.0;        ///< NBin/NBout (+ offset buffers)
    double logicArea = 1.0;       ///< dispatcher, encoders, control
    double nmAccess = 1.0;        ///< energy per NM access
    double nbinAccess = 1.0;      ///< energy per NBin/NBout entry access
    double nmBankingStatic = 1.0; ///< extra NM leakage from banking
};

/** Cnvlutin (Section V-C; fitted to the Figure 12 CNV deltas). */
inline constexpr Scales kCnvScales{
    .nmArea = 1.34,          // +25% offsets, 16 banks
    .sramArea = 1.158,       // offset buffer space
    .logicArea = 1.01,       // dispatcher + encoders
    .nmAccess = 1.35,        // wider (offsets) + banked access
    .nbinAccess = 1.25,      // entry carries a 4-bit offset
    .nmBankingStatic = 1.05, // peripheral duplication
};

/**
 * Cnvlutin2: CNV's encoded datapath (offset buffers, banked NM) with
 * NM provisioned for offset-only ZFNAf and a dispatcher that also
 * walks the static weight-skip schedule (docs/architectures.md).
 */
inline constexpr Scales kCnv2Scales{
    .nmArea = 1.28,          // values packed: less padding than CNV
    .sramArea = 1.158,       // same offset buffers as CNV
    .logicArea = 1.02,       // per-filter-group brick masks
    .nmAccess = 1.30,        // narrower rows than CNV, still banked
    .nbinAccess = 1.25,      // same as CNV
    .nmBankingStatic = 1.05, // same as CNV
};

/** Component area breakdown for an architecture (Figure 11). */
AreaBreakdown areaOf(const Scales &s, const PowerParams &p = {});

/**
 * Average power over a run (Figure 12).
 *
 * @param s The architecture's scale factors.
 * @param counters Event totals from the simulator.
 * @param cycles Run length in cycles.
 */
PowerBreakdown powerOf(const Scales &s,
                       const dadiannao::EnergyCounters &counters,
                       std::uint64_t cycles, const PowerParams &p = {});

/** Delay, energy, EDP, ED^2P for a run (Figure 13). */
RunMetrics metricsOf(const Scales &s,
                     const dadiannao::EnergyCounters &counters,
                     std::uint64_t cycles, const PowerParams &p = {});

} // namespace cnv::power

#endif // CNV_POWER_MODEL_H
