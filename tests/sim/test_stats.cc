/** @file Tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/error.h"
#include "sim/logging.h"
#include "sim/stats.h"

namespace {

using namespace cnv::sim;

TEST(Stats, CounterIncrements)
{
    StatGroup g("top");
    Counter &c = g.addCounter("events", "number of events");
    ++c;
    c += 5;
    EXPECT_EQ(c.count(), 6u);
    EXPECT_DOUBLE_EQ(c.value(), 6.0);
}

TEST(Stats, ScalarAssignsAndAccumulates)
{
    StatGroup g("top");
    Scalar &s = g.addScalar("energy", "joules");
    s = 1.5;
    s += 0.5;
    EXPECT_DOUBLE_EQ(s.value(), 2.0);
}

TEST(Stats, FormulaComputesFromOtherStats)
{
    StatGroup g("top");
    Counter &cycles = g.addCounter("cycles", "cycles");
    Counter &ops = g.addCounter("ops", "operations");
    g.addFormula("ipc", "ops per cycle", [&] {
        return cycles.count() ? ops.value() / cycles.value() : 0.0;
    });
    cycles += 10;
    ops += 25;
    EXPECT_DOUBLE_EQ(g.get("ipc"), 2.5);
}

TEST(Stats, NestedGroupsAndPathLookup)
{
    StatGroup root("node");
    StatGroup &unit = root.addGroup("unit0");
    Counter &c = unit.addCounter("sbReads", "SB reads");
    c += 3;
    EXPECT_DOUBLE_EQ(root.get("unit0.sbReads"), 3.0);
    EXPECT_EQ(root.find("unit0.missing"), nullptr);
    EXPECT_EQ(root.find("missing.sbReads"), nullptr);
}

TEST(Stats, GetUnknownStatIsFatal)
{
    setVerbosity(Verbosity::Silent);
    StatGroup g("top");
    EXPECT_THROW(g.get("nope"), FatalError);
    setVerbosity(Verbosity::Info);
}

TEST(Stats, DuplicateNameIsFatal)
{
    setVerbosity(Verbosity::Silent);
    StatGroup g("top");
    g.addCounter("x", "first");
    EXPECT_THROW(g.addCounter("x", "second"), FatalError);
    setVerbosity(Verbosity::Info);
}

TEST(Stats, ResetAllClearsEverything)
{
    StatGroup root("node");
    Counter &c = root.addCounter("c", "c");
    StatGroup &sub = root.addGroup("sub");
    Scalar &s = sub.addScalar("s", "s");
    c += 7;
    s = 3.0;
    root.resetAll();
    EXPECT_EQ(c.count(), 0u);
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, DumpContainsNamesValuesAndDescriptions)
{
    StatGroup root("node");
    Counter &c = root.addCounter("cycles", "total cycles");
    c += 42;
    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("node.cycles"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("total cycles"), std::string::npos);
}

TEST(Stats, VisitWalksAllStats)
{
    StatGroup root("node");
    root.addCounter("a", "a");
    root.addGroup("g").addCounter("b", "b");
    int visited = 0;
    root.visit([&](const std::string &name, const Stat &) {
        ++visited;
        EXPECT_EQ(name.rfind("node.", 0), 0u);
    });
    EXPECT_EQ(visited, 2);
}

} // namespace
