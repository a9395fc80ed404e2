/**
 * @file
 * Tests for the two-phase cycle engine, its latch and the
 * engine-clocked ScopedSpan.
 */

#include <gtest/gtest.h>

#include "ref/engine.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/trace_event.h"

namespace {

using namespace cnv;
using namespace cnv::ref;

/** Produces `count` integers, one per cycle, into a latch. */
class Producer : public Clocked
{
  public:
    Producer(Latch<int> &out, int count)
        : Clocked("producer"), out_(out), remaining_(count)
    {}

    void
    evaluate(Cycle) override
    {
        if (remaining_ > 0 && !out_.stalled()) {
            out_.push(remaining_);
            --remaining_;
        }
    }

    void commit(Cycle) override { out_.tick(); }
    bool done() const override { return remaining_ == 0; }

  private:
    Latch<int> &out_;
    int remaining_;
};

/** Consumes integers from a latch, recording arrival cycles. */
class Consumer : public Clocked
{
  public:
    Consumer(Latch<int> &in, int expect)
        : Clocked("consumer"), in_(in), expect_(expect)
    {}

    void
    evaluate(Cycle cycle) override
    {
        if (in_.valid()) {
            values_.push_back(in_.pop());
            cycles_.push_back(cycle);
        }
    }

    void commit(Cycle) override {}
    bool
    done() const override
    {
        return static_cast<int>(values_.size()) == expect_;
    }

    const std::vector<int> &values() const { return values_; }
    const std::vector<Cycle> &cycles() const { return cycles_; }

  private:
    Latch<int> &in_;
    int expect_;
    std::vector<int> values_;
    std::vector<Cycle> cycles_;
};

TEST(Engine, LatchDelaysValuesByOneCycle)
{
    Latch<int> link;
    Producer p(link, 3);
    Consumer c(link, 3);
    Engine engine("t");
    engine.add(p);
    engine.add(c);
    const Cycle cycles = engine.run(100);

    EXPECT_EQ(c.values(), (std::vector<int>{3, 2, 1}));
    // First value pushed in cycle 0 is visible in cycle 1.
    EXPECT_EQ(c.cycles().front(), 1u);
    EXPECT_EQ(cycles, 4u); // 3 values + 1 cycle pipeline latency
}

TEST(Engine, RunReturnsZeroWhenAlreadyDone)
{
    Latch<int> link;
    Producer p(link, 0);
    Engine engine("t");
    engine.add(p);
    EXPECT_EQ(engine.run(10), 0u);
}

TEST(Engine, CycleLimitThrowsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);

    /** Never finishes. */
    class Stuck : public Clocked
    {
      public:
        Stuck() : Clocked("stuck") {}
        void evaluate(Cycle) override {}
        void commit(Cycle) override {}
        bool done() const override { return false; }
    } stuck;

    Engine engine("t");
    engine.add(stuck);
    EXPECT_THROW(engine.run(8), sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

TEST(Engine, StepAdvancesTime)
{
    Engine engine("t");
    EXPECT_EQ(engine.now(), 0u);
    engine.step();
    engine.step();
    EXPECT_EQ(engine.now(), 2u);
}

TEST(Latch, StallDetectionAndBackpressure)
{
    Latch<int> l;
    l.push(1);
    l.tick();
    EXPECT_TRUE(l.valid());
    l.push(2);
    EXPECT_TRUE(l.stalled()); // unconsumed + staged
    EXPECT_EQ(l.pop(), 1);
    EXPECT_FALSE(l.valid());
    l.tick();
    EXPECT_TRUE(l.valid());
    EXPECT_EQ(l.pop(), 2);
}

TEST(ScopedSpan, CoversTheEngineIntervalAndSuppressesEmptySpans)
{
    Engine engine("t");
    sim::TraceSink sink;

    {
        ScopedSpan span(&sink, engine, 1, 4, "group", "pipeline",
                        {sim::TraceArg("w0", std::uint64_t{0})});
        engine.step();
        engine.step();
        engine.step();
    }
    ASSERT_EQ(sink.events().size(), 1u);
    EXPECT_EQ(sink.events()[0].ts, 0u);
    EXPECT_EQ(sink.events()[0].dur, 3u);
    EXPECT_EQ(sink.events()[0].name, "group");
    ASSERT_EQ(sink.events()[0].args.size(), 1u);
    EXPECT_EQ(sink.events()[0].args[0].name, "w0");

    // Explicit end() closes the span early and is idempotent.
    ScopedSpan span(&sink, engine, 1, 4, "tail", "pipeline");
    engine.step();
    span.end();
    engine.step();
    span.end();
    ASSERT_EQ(sink.events().size(), 2u);
    EXPECT_EQ(sink.events()[1].ts, 3u);
    EXPECT_EQ(sink.events()[1].dur, 1u);

    // Zero-length spans and null sinks record nothing.
    { ScopedSpan empty(&sink, engine, 1, 4, "empty", "pipeline"); }
    { ScopedSpan nosink(nullptr, engine, 1, 4, "x", "pipeline"); }
    EXPECT_EQ(sink.events().size(), 2u);
}

} // namespace
