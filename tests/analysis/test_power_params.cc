/** @file Tests for PowerParams customization and provenance. */

#include <gtest/gtest.h>

#include "power/model.h"
#include "sim/error.h"
#include "sim/logging.h"

namespace {

using namespace cnv;
using power::PowerParams;
using power::Scales;

TEST(PowerParams, AreaScaleFactorsAreTheKnobs)
{
    Scales s = power::kCnvScales;
    s.nmArea = 2.0;
    const auto base = power::areaOf(Scales{});
    const auto cnvA = power::areaOf(s);
    EXPECT_DOUBLE_EQ(cnvA.nm, base.nm * 2.0);
}

TEST(PowerParams, EventEnergiesScaleDynamicPowerLinearly)
{
    dadiannao::EnergyCounters c;
    c.sbReads = 1'000'000;
    PowerParams p1, p2;
    p2.sbReadPj = p1.sbReadPj * 3.0;
    const auto a = power::powerOf(Scales{}, c, 1000, p1);
    const auto b = power::powerOf(Scales{}, c, 1000, p2);
    EXPECT_NEAR(b.sbDynamic, a.sbDynamic * 3.0, 1e-12);
}

TEST(PowerParams, ClockScalesTimeAndPower)
{
    dadiannao::EnergyCounters c;
    c.multOps = 1'000'000;
    PowerParams slow, fast;
    fast.clockGhz = 2.0;
    const auto ms = power::metricsOf(Scales{}, c, 1'000'000, slow);
    const auto mf = power::metricsOf(Scales{}, c, 1'000'000, fast);
    EXPECT_NEAR(mf.seconds, ms.seconds / 2.0, 1e-15);
    // Same dynamic energy in half the time: higher dynamic power.
    const auto ps = power::powerOf(Scales{}, c, 1'000'000, slow);
    const auto pf = power::powerOf(Scales{}, c, 1'000'000, fast);
    EXPECT_NEAR(pf.logicDynamic, ps.logicDynamic * 2.0, 1e-12);
}

TEST(PowerParams, OffchipBytesExcludedFromChipPower)
{
    dadiannao::EnergyCounters quiet, noisy;
    noisy.offchipBytes = 1u << 30;
    const auto a = power::powerOf(power::kCnvScales, quiet, 1000);
    const auto b = power::powerOf(power::kCnvScales, noisy, 1000);
    EXPECT_DOUBLE_EQ(a.total(), b.total());
}

TEST(PowerParams, ZeroCyclesIsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    dadiannao::EnergyCounters c;
    EXPECT_THROW(power::powerOf(power::kCnvScales, c, 0), sim::PanicError);
    sim::setVerbosity(sim::Verbosity::Info);
}

} // namespace
