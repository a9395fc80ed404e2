/** @file Tests for the area/energy model. */

#include <gtest/gtest.h>

#include "power/model.h"

namespace {

using namespace cnv;
using dadiannao::EnergyCounters;
using power::Scales;

TEST(Area, CnvOverheadNearPaperValue)
{
    const auto base = power::areaOf(Scales{});
    const auto cnvA = power::areaOf(power::kCnvScales);
    const double overhead = cnvA.total() / base.total() - 1.0;
    // Paper: 4.49% total area overhead.
    EXPECT_NEAR(overhead, 0.0449, 0.01);
    // SB dominates both layouts and is unchanged.
    EXPECT_DOUBLE_EQ(base.sb, cnvA.sb);
    EXPECT_GT(base.sb / base.total(), 0.5);
    // NM grows 34%, SRAM 15.8% (Section V-C).
    EXPECT_NEAR(cnvA.nm / base.nm, 1.34, 1e-9);
    EXPECT_NEAR(cnvA.sram / base.sram, 1.158, 1e-9);
}

EnergyCounters
syntheticRun(double scale)
{
    EnergyCounters c;
    c.sbReads = static_cast<std::uint64_t>(2.56e8 * scale);
    c.nmReads = static_cast<std::uint64_t>(1e6 * scale);
    c.nmWrites = static_cast<std::uint64_t>(2e5 * scale);
    c.nbinReads = static_cast<std::uint64_t>(2.56e8 * scale);
    c.nbinWrites = static_cast<std::uint64_t>(2.56e8 * scale);
    c.multOps = static_cast<std::uint64_t>(4.1e9 * scale);
    c.addOps = c.multOps;
    return c;
}

TEST(Power, StaticPlusDynamicComposition)
{
    const auto c = syntheticRun(1.0);
    const auto p = power::powerOf(Scales{}, c, 1'000'000);
    EXPECT_GT(p.staticTotal(), 0.0);
    EXPECT_GT(p.dynamicTotal(), 0.0);
    EXPECT_DOUBLE_EQ(p.total(), p.staticTotal() + p.dynamicTotal());
}

TEST(Power, DynamicScalesWithActivity)
{
    const auto lo = power::powerOf(Scales{}, syntheticRun(0.5),
                                   1'000'000);
    const auto hi = power::powerOf(Scales{}, syntheticRun(1.0),
                                   1'000'000);
    EXPECT_NEAR(hi.dynamicTotal() / lo.dynamicTotal(), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(hi.staticTotal(), lo.staticTotal());
}

TEST(Power, SbDynamicDropsWhenReadsAreSkipped)
{
    // Same wall-clock, 40% fewer SB reads -> 40% less SB dynamic.
    auto base = syntheticRun(1.0);
    auto cnvRun = base;
    cnvRun.sbReads = static_cast<std::uint64_t>(base.sbReads * 0.6);
    const auto pb = power::powerOf(Scales{}, base, 1'000'000);
    const auto pc = power::powerOf(Scales{}, cnvRun, 1'000'000);
    EXPECT_NEAR(pc.sbDynamic / pb.sbDynamic, 0.6, 1e-9);
}

TEST(Power, CnvNmCostsMore)
{
    const auto c = syntheticRun(1.0);
    const auto pb = power::powerOf(Scales{}, c, 1'000'000);
    const auto pc = power::powerOf(power::kCnvScales, c, 1'000'000);
    // Same events and time: CNV's NM is wider + banked.
    EXPECT_GT(pc.nmDynamic, pb.nmDynamic);
    EXPECT_GT(pc.nmStatic, pb.nmStatic);
    EXPECT_GT(pc.sramStatic, pb.sramStatic);
    EXPECT_DOUBLE_EQ(pc.sbStatic, pb.sbStatic);
}

TEST(Metrics, PaperEdpArithmetic)
{
    const auto c = syntheticRun(1.0);
    const auto m = power::metricsOf(Scales{}, c, 1'000'000);
    EXPECT_NEAR(m.seconds, 1e-3, 1e-12);
    EXPECT_NEAR(m.edp, m.watts * m.seconds, 1e-15);
    EXPECT_NEAR(m.ed2p, m.edp * m.seconds, 1e-18);
    EXPECT_NEAR(m.joules, m.edp, 1e-15);
}

TEST(Metrics, FasterRunWinsEdpWhenEnergyComparable)
{
    const auto c = syntheticRun(1.0);
    const auto slow = power::metricsOf(Scales{}, c, 2'000'000);
    const auto fast = power::metricsOf(Scales{}, c, 1'000'000);
    EXPECT_LT(fast.edp, slow.edp);
    EXPECT_LT(fast.ed2p / slow.ed2p, fast.edp / slow.edp);
}

} // namespace
