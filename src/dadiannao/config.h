/**
 * @file
 * Node configuration shared by the DaDianNao baseline and CNV
 * models (Section IV-A): one node = 16 NFUs; each NFU has 16 neuron
 * lanes and 16 filter lanes of 16 synapse sublanes (256 multipliers,
 * 16 adder trees), a 2MB eDRAM SB per unit, SRAM NBin/NBout, and a
 * shared 4MB central eDRAM Neuron Memory. At 1GHz and 16-bit
 * synapses the 16 units consume 4K synapses/cycle = 8TB/s.
 */

#ifndef CNV_DADIANNAO_CONFIG_H
#define CNV_DADIANNAO_CONFIG_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cnv::dadiannao {

/** How CNV maps a window's bricks to neuron lanes (Section IV-B2). */
enum class LaneAssignment
{
    /**
     * Strict reading of "slice = complete vertical chunk": lane =
     * brick-z-index mod lanes, a static function of array
     * coordinates (matching the one-slice-per-NM-bank layout).
     * Exact for depths that are a multiple of lanes x brick, but it
     * leaves lanes idle on shallow layers.
     */
    ZOnly,
    /**
     * Static spatial hash: lane = (brickZ + x + y) mod lanes. Keeps
     * the bank mapping array-static and spreads shallow columns,
     * but adjacent window cells collide systematically (their x+y
     * differ by 1), so per-window balance is poor.
     */
    XYZHash,
    /**
     * Default — the paper's "divides the window evenly into 16
     * slices": the window's bricks, enumerated in processing order
     * over its valid cells, round-robin across lanes. Identical to
     * ZOnly whenever the depth brick count is a multiple of the
     * lane count (all the paper's deep layers); for shallow layers
     * it keeps every lane busy. Requires bank-to-lane steering in
     * the dispatcher for windows whose brick count is not a lane
     * multiple (the paper does not detail this case; see DESIGN.md
     * and bench_abl_assignment).
     */
    WindowEven,
};

/** Architecture parameters for one accelerator node. */
struct NodeConfig
{
    int units = 16;              ///< NFUs per node
    int lanes = 16;              ///< neuron lanes (CNV subunits) per unit
    int filtersPerUnit = 16;     ///< filter lanes per unit
    int brickSize = 16;          ///< ZFNAf brick = DaDianNao fetch block
    int nbinEntries = 64;        ///< NBin depth per subunit
    int nboutEntries = 64;       ///< NBout depth per unit
    std::size_t sbBytesPerUnit = 2u << 20;  ///< 2MB eDRAM SB per unit
    std::size_t nmBytes = 4u << 20;         ///< 4MB central eDRAM NM
    int nmBanks = 16;            ///< NM banking (CNV)
    double clockGhz = 1.0;

    /**
     * Off-chip bandwidth for streaming synapses that exceed the SB
     * (fully-connected layers). Loading overlaps earlier layers'
     * compute (Section IV-A); only the exposed remainder stalls.
     */
    int offchipBytesPerCycle = 512;

    /** CNV brick-to-lane mapping policy. */
    LaneAssignment laneAssignment = LaneAssignment::WindowEven;

    /**
     * Cost of a brick whose neurons are all zero: 1 cycle (the NM
     * bank supplies at most one brick per cycle — the paper's worst
     * case) or 0 (idealised skip, for the ablation study).
     */
    bool emptyBrickCostsCycle = true;

    /**
     * Extension (off by default — the paper's CNV targets only
     * convolutional layers): apply zero skipping to fully-connected
     * layers too, eliding both the compute and the off-chip synapse
     * fetches of zero activations (Section VII's "broader
     * applicability"; cf. EIE). See bench_ext_fc.
     */
    bool cnvSkipsFcLayers = false;

    /** Filters processed in parallel across the node. */
    int
    parallelFilters() const
    {
        return units * filtersPerUnit;
    }

    /** Input neurons consumed per cycle across the node. */
    int
    nodeLanes() const
    {
        return units * lanes;
    }

    /**
     * Windows whose partial sums fit in NBout simultaneously: with
     * 64 NBout entries and 16 filters per unit, CNV keeps 4 windows
     * in flight, synchronising lanes only at window-group
     * boundaries (Sections IV-B and IV-B5).
     */
    int
    windowsInFlight() const
    {
        return std::max(1, nboutEntries / filtersPerUnit);
    }

    bool operator==(const NodeConfig &) const = default;

    /** Check structural constraints; fatal with a reason if broken. */
    void validate() const;

    /** One-line human-readable summary for experiment logs. */
    std::string describe() const;
};

} // namespace cnv::dadiannao

#endif // CNV_DADIANNAO_CONFIG_H
