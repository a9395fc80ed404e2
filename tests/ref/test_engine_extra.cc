/** @file Additional engine coverage: ordering and composition. */

#include <gtest/gtest.h>

#include <vector>

#include "ref/engine.h"

namespace {

using namespace cnv::ref;

/** Records the order in which phases run. */
class Recorder : public Clocked
{
  public:
    Recorder(int id, std::vector<int> &evalLog, std::vector<int> &commitLog,
             int lifetime)
        : Clocked("recorder"),
          id_(id),
          evalLog_(evalLog),
          commitLog_(commitLog),
          remaining_(lifetime)
    {}

    void
    evaluate(Cycle) override
    {
        evalLog_.push_back(id_);
        if (remaining_ > 0)
            --remaining_;
    }

    void commit(Cycle) override { commitLog_.push_back(id_); }
    bool done() const override { return remaining_ == 0; }

  private:
    int id_;
    std::vector<int> &evalLog_;
    std::vector<int> &commitLog_;
    int remaining_;
};

TEST(EngineOrdering, EvaluateAllThenCommitAllInAddOrder)
{
    std::vector<int> evals, commits;
    Recorder a(1, evals, commits, 1), b(2, evals, commits, 1);
    Engine engine("t");
    engine.add(a);
    engine.add(b);
    engine.step();
    EXPECT_EQ(evals, (std::vector<int>{1, 2}));
    EXPECT_EQ(commits, (std::vector<int>{1, 2}));
}

TEST(EngineOrdering, RunsUntilSlowestComponentFinishes)
{
    std::vector<int> evals, commits;
    Recorder fast(1, evals, commits, 2), slow(2, evals, commits, 7);
    Engine engine("t");
    engine.add(fast);
    engine.add(slow);
    EXPECT_EQ(engine.run(100), 7u);
}

TEST(EngineOrdering, SequentialRunsAccumulateTime)
{
    std::vector<int> evals, commits;
    Recorder a(1, evals, commits, 3);
    Engine engine("t");
    engine.add(a);
    engine.run(100);
    EXPECT_EQ(engine.now(), 3u);

    Recorder b(2, evals, commits, 2);
    engine.add(b);
    engine.run(100);
    EXPECT_EQ(engine.now(), 5u);
}

TEST(EngineRegions, RegionsCoverConsecutiveRuns)
{
    std::vector<int> evals, commits;
    Engine engine("t");

    Recorder a(1, evals, commits, 3);
    engine.add(a);
    engine.beginRegion("phase-a");
    engine.run(100);
    engine.endRegion();

    Recorder b(2, evals, commits, 2);
    engine.clear();
    engine.add(b);
    engine.beginRegion("phase-b");
    engine.run(100);
    engine.endRegion();

    ASSERT_EQ(engine.regions().size(), 2u);
    const Region &ra = engine.regions()[0];
    const Region &rb = engine.regions()[1];
    EXPECT_EQ(ra.name, "phase-a");
    EXPECT_EQ(ra.begin, 0u);
    EXPECT_EQ(ra.end, 3u);
    EXPECT_EQ(ra.cycles(), 3u);
    EXPECT_EQ(rb.name, "phase-b");
    EXPECT_EQ(rb.begin, 3u);
    EXPECT_EQ(rb.end, 5u);
}

TEST(EngineRegions, BeginClosesOpenRegion)
{
    std::vector<int> evals, commits;
    Recorder a(1, evals, commits, 2);
    Engine engine("t");
    engine.add(a);
    engine.beginRegion("first");
    engine.run(100);
    engine.beginRegion("second"); // implicitly ends "first" at cycle 2
    ASSERT_EQ(engine.regions().size(), 2u);
    EXPECT_EQ(engine.regions()[0].end, 2u);
    EXPECT_EQ(engine.regions()[1].begin, 2u);
}

TEST(EngineRegions, EndWithoutOpenRegionIsANoop)
{
    Engine engine("t");
    engine.endRegion();
    EXPECT_TRUE(engine.regions().empty());
}

TEST(EngineRegions, ClearKeepsClockRunning)
{
    std::vector<int> evals, commits;
    Recorder a(1, evals, commits, 4);
    Engine engine("t");
    engine.add(a);
    engine.run(100);
    engine.clear();
    EXPECT_TRUE(engine.allDone());
    EXPECT_EQ(engine.now(), 4u);
}

TEST(LatchExtra, PushWithoutTickStaysInvisible)
{
    Latch<int> l;
    l.push(9);
    EXPECT_FALSE(l.valid());
    l.tick();
    EXPECT_TRUE(l.valid());
}

TEST(LatchExtra, TickWithoutPushKeepsCurrent)
{
    Latch<int> l;
    l.push(1);
    l.tick();
    l.tick(); // nothing staged; current unconsumed
    EXPECT_TRUE(l.valid());
    EXPECT_EQ(l.pop(), 1);
}

} // namespace
