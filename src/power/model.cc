#include "power/model.h"

#include "sim/logging.h"

namespace cnv::power {

using dadiannao::EnergyCounters;

AreaBreakdown
areaOf(const Scales &s, const PowerParams &p)
{
    AreaBreakdown a;
    a.sb = p.sbArea;
    a.nm = p.nmArea * s.nmArea;
    a.logic = p.logicArea * s.logicArea;
    a.sram = p.sramArea * s.sramArea;
    return a;
}

PowerBreakdown
powerOf(const Scales &s, const EnergyCounters &c, std::uint64_t cycles,
        const PowerParams &p)
{
    CNV_ASSERT(cycles > 0, "power needs a non-empty run");
    const double seconds =
        static_cast<double>(cycles) / (p.clockGhz * 1e9);

    // Dynamic energy per component (joules).
    const double pj = 1e-12;
    const double sbE = static_cast<double>(c.sbReads) * p.sbReadPj * pj;
    const double nmE = static_cast<double>(c.nmReads + c.nmWrites) *
                       p.nmAccessPj * s.nmAccess * pj;
    const double sramE = static_cast<double>(c.nbinReads + c.nbinWrites) *
                         p.nbinAccessPj * s.nbinAccess * pj;
    // Off-chip DRAM energy (c.offchipBytes) is excluded: the paper
    // reports accelerator-chip power (Synopsys DC + Destiny models
    // of the on-chip components only).
    const double logicE =
        (static_cast<double>(c.multOps) * p.multPj +
         static_cast<double>(c.addOps) * p.addPj +
         static_cast<double>(c.encoderOps) * p.encoderPj) * pj;

    PowerBreakdown out;
    out.sbDynamic = sbE / seconds;
    out.nmDynamic = nmE / seconds;
    out.sramDynamic = sramE / seconds;
    out.logicDynamic = logicE / seconds;

    // Static power scales with component area.
    out.sbStatic = p.sbStaticW;
    out.nmStatic = p.nmStaticW * (s.nmArea * s.nmBankingStatic);
    out.sramStatic = p.sramStaticW * s.sramArea;
    out.logicStatic = p.logicStaticW * s.logicArea;
    return out;
}

RunMetrics
metricsOf(const Scales &s, const EnergyCounters &c, std::uint64_t cycles,
          const PowerParams &p)
{
    const PowerBreakdown pb = powerOf(s, c, cycles, p);
    RunMetrics m;
    m.seconds = static_cast<double>(cycles) / (p.clockGhz * 1e9);
    m.watts = pb.total();
    m.joules = m.watts * m.seconds;
    m.edp = m.watts * m.seconds;          // paper's EDP arithmetic
    m.ed2p = m.watts * m.seconds * m.seconds;
    return m;
}

} // namespace cnv::power
