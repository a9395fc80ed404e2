/**
 * @file
 * Tests for stall attribution: the reason-name vocabulary and its
 * report order, the per-reason StallCycles record, direct
 * accumulation, the trace-event fold (laneCycles/layer argument
 * semantics, pid filtering, unknown-reason accounting) and the CSV
 * export.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>

#include "sim/logging.h"
#include "sim/stall_profile.h"
#include "sim/trace_event.h"

namespace {

using namespace cnv;
using sim::StallCycles;
using sim::StallProfile;
using sim::StallReason;
using sim::TraceArg;
using sim::TraceSink;

TEST(StallReasonNames, RoundTripAndRejectUnknown)
{
    const StallReason all[] = {
        StallReason::BrickBufferEmpty, StallReason::WindowBarrier,
        StallReason::SynapseWait,      StallReason::SliceDrained,
        StallReason::NmBankConflict,   StallReason::GbMiss,
        StallReason::DramWait};
    static_assert(std::size(all) == sim::kStallReasonCount);
    for (StallReason r : all) {
        const auto back = sim::stallReasonFromName(sim::stallReasonName(r));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, r);
    }
    EXPECT_STREQ(sim::stallReasonName(StallReason::BrickBufferEmpty),
                 "brick_buffer_empty");
    EXPECT_STREQ(sim::stallReasonName(StallReason::WindowBarrier),
                 "window_barrier");
    EXPECT_STREQ(sim::stallReasonName(StallReason::SynapseWait),
                 "synapse_wait");
    EXPECT_STREQ(sim::stallReasonName(StallReason::SliceDrained),
                 "slice_drained");
    EXPECT_STREQ(sim::stallReasonName(StallReason::NmBankConflict),
                 "nm_bank_conflict");
    EXPECT_STREQ(sim::stallReasonName(StallReason::GbMiss), "gb_miss");
    EXPECT_STREQ(sim::stallReasonName(StallReason::DramWait),
                 "dram_wait");
    EXPECT_FALSE(sim::stallReasonFromName("coffee_break").has_value());
}

TEST(StallReasonNames, ReportOrderPutsTheFourNonMemoryReasonsFirst)
{
    // Ideal-memory reports emit the first four reasons only, so the
    // three memory reasons must follow them in enum order.
    const char *order[] = {"brick_buffer_empty", "window_barrier",
                           "synapse_wait",       "slice_drained",
                           "nm_bank_conflict",   "gb_miss",
                           "dram_wait"};
    static_assert(std::size(order) == sim::kStallReasonCount);
    for (int i = 0; i < sim::kStallReasonCount; ++i) {
        const auto r = static_cast<StallReason>(i);
        EXPECT_STREQ(sim::stallReasonName(r), order[i]);
        EXPECT_EQ(sim::isMemoryStallReason(r), i >= 4) << order[i];
        EXPECT_NE(std::string(sim::stallReasonDescription(r)), "");
    }
}

TEST(StallCycles, AddsTotalsAndComparesPerReason)
{
    StallCycles a;
    EXPECT_EQ(a.total(), 0u);
    a[StallReason::WindowBarrier] = 10;
    a[StallReason::DramWait] = 3;
    StallCycles b;
    b[StallReason::WindowBarrier] = 5;
    b[StallReason::GbMiss] = 2;

    a += b;
    EXPECT_EQ(a[StallReason::WindowBarrier], 15u);
    EXPECT_EQ(a[StallReason::GbMiss], 2u);
    EXPECT_EQ(a[StallReason::DramWait], 3u);
    EXPECT_EQ(a[StallReason::BrickBufferEmpty], 0u);
    EXPECT_EQ(a.total(), 20u);
    EXPECT_EQ(b.total(), 7u); // the right-hand side is unchanged

    // Equality compares every reason, not just the totals.
    StallCycles c = a;
    EXPECT_TRUE(c == a);
    c[StallReason::GbMiss] -= 1;
    c[StallReason::SliceDrained] += 1;
    EXPECT_EQ(c.total(), a.total());
    EXPECT_FALSE(c == a);
}

TEST(StallProfile, AccumulatesPerLayerPerReason)
{
    StallProfile p;
    p.add("L0_c1", StallReason::WindowBarrier, 10);
    p.add("L1_c2", StallReason::SynapseWait, 5);
    p.add("L0_c1", StallReason::WindowBarrier, 3);
    p.add("L0_c1", StallReason::SliceDrained, 2);

    ASSERT_EQ(p.rows().size(), 2u); // first-seen order
    EXPECT_EQ(p.rows()[0].layer, "L0_c1");
    EXPECT_EQ(p.rows()[0].idle.total(), 15u);
    EXPECT_EQ(p.rows()[1].layer, "L1_c2");
    EXPECT_EQ(p.totals()[StallReason::WindowBarrier], 13u);
    EXPECT_EQ(p.totals()[StallReason::SynapseWait], 5u);
    EXPECT_EQ(p.totals()[StallReason::BrickBufferEmpty], 0u);
    EXPECT_EQ(p.totals().total(), 20u);
}

TEST(StallProfile, FoldsTraceEventsWithArgumentOverrides)
{
    TraceSink sink;
    // Span duration is the idle amount when no laneCycles arg...
    sink.complete(1, 3, "brick_buffer_empty", "stall", 0, 7);
    // ...an explicit laneCycles arg overrides it (lock-step arrays
    // record one span for many lanes)...
    sink.complete(1, 1, "brick_buffer_empty", "stall", 0, 4,
                  {TraceArg("laneCycles", std::uint64_t{64})});
    // ...and a layer arg keys the row instead of the default.
    sink.complete(1, 2, "window_barrier", "stall", 10, 5,
                  {TraceArg("layer", "L1_c2"),
                   TraceArg("laneCycles", std::uint64_t{5})});
    // Non-stall categories are ignored outright.
    sink.complete(1, 2, "busy", "lane", 0, 100);
    // Another process, to be excluded by the pid filter.
    sink.complete(2, 1, "synapse_wait", "stall", 0, 9);

    StallProfile p;
    EXPECT_EQ(p.addFromTrace(sink, 1, "(run)"), 0u);
    EXPECT_EQ(p.totals()[StallReason::BrickBufferEmpty], 71u);
    EXPECT_EQ(p.totals()[StallReason::WindowBarrier], 5u);
    EXPECT_EQ(p.totals()[StallReason::SynapseWait], 0u);
    ASSERT_EQ(p.rows().size(), 2u);
    EXPECT_EQ(p.rows()[0].layer, "(run)");
    EXPECT_EQ(p.rows()[1].layer, "L1_c2");

    // pid 0 folds every process.
    StallProfile all;
    EXPECT_EQ(all.addFromTrace(sink), 0u);
    EXPECT_EQ(all.totals().total(), 85u);
}

TEST(StallProfile, CountsUnknownReasonNames)
{
    TraceSink sink;
    sink.complete(1, 1, "mystery_stall", "stall", 0, 3);
    sink.complete(1, 1, "slice_drained", "stall", 3, 2);

    StallProfile p;
    sim::setVerbosity(sim::Verbosity::Silent);
    const std::size_t unknown = p.addFromTrace(sink);
    sim::setVerbosity(sim::Verbosity::Info);
    EXPECT_EQ(unknown, 1u);
    EXPECT_EQ(p.totals().total(), 2u);
    EXPECT_EQ(p.totals()[StallReason::SliceDrained], 2u);
}

TEST(StallProfile, WritesSparseCsvWithOptionalScope)
{
    StallProfile p;
    p.add("L0_c1", StallReason::WindowBarrier, 10);
    p.add("L1_c2", StallReason::SynapseWait, 5);

    std::ostringstream plain;
    p.writeCsv(plain);
    EXPECT_EQ(plain.str(),
              "layer,reason,idleLaneCycles\n"
              "L0_c1,window_barrier,10\n"
              "L1_c2,synapse_wait,5\n");

    // A prefix becomes a leading scope column; header is optional so
    // several profiles can merge into one file.
    std::ostringstream scoped;
    p.writeCsv(scoped, "cnv");
    std::ostringstream more;
    p.writeCsv(more, "dadiannao", /*header=*/false);
    EXPECT_EQ(scoped.str(),
              "scope,layer,reason,idleLaneCycles\n"
              "cnv,L0_c1,window_barrier,10\n"
              "cnv,L1_c2,synapse_wait,5\n");
    EXPECT_EQ(more.str(),
              "dadiannao,L0_c1,window_barrier,10\n"
              "dadiannao,L1_c2,synapse_wait,5\n");
}

} // namespace
