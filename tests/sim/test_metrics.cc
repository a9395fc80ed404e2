/** @file Tests for the host-telemetry metrics registry. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "support/json_parser.h"

namespace {

using namespace cnv::sim;

/** Enable the process-wide registry for one test, reset on exit. */
class MetricsEnabled
{
  public:
    MetricsEnabled() { metrics().setEnabled(true); }
    ~MetricsEnabled() { metrics().setEnabled(false); }
};

TEST(MetricsRegistry, DisabledRegistryRecordsNothing)
{
    metrics().setEnabled(false);
    metrics().add("test.disabledCounter", 5);
    metrics().gaugeMax("test.disabledGauge", 7);
    metrics().recordNanos("test.disabledHist", 1000);
    EXPECT_EQ(metrics().nowIfEnabled(), 0u);
    EXPECT_EQ(metrics().secondsSinceEnable(), 0.0);
    const auto snap = metrics().snapshot();
    EXPECT_FALSE(snap.enabled);
    EXPECT_EQ(snap.counters.count("test.disabledCounter"), 0u);
    EXPECT_EQ(snap.gauges.count("test.disabledGauge"), 0u);
    EXPECT_EQ(snap.histograms.count("test.disabledHist"), 0u);
}

TEST(MetricsRegistry, EnableResetsPriorSeries)
{
    metrics().setEnabled(true);
    metrics().add("test.stale");
    metrics().setEnabled(true); // re-enable = fresh epoch
    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counters.count("test.stale"), 0u);
    metrics().setEnabled(false);
}

TEST(MetricsRegistry, ConcurrentCountersSumExactly)
{
    const MetricsEnabled on;
    // A local pool (not the global one) so the test controls the
    // concurrency; TSan in CI exercises the registry's locking.
    ThreadPool pool(4);
    constexpr std::size_t kTasks = 400;
    parallelFor(pool, kTasks, [&](std::size_t i) {
        metrics().add("test.concurrent", 1);
        metrics().gaugeMax("test.highWater", i);
        metrics().recordNanos("test.latency", (i + 1) * 1000);
    });
    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counters.at("test.concurrent"), kTasks);
    EXPECT_EQ(snap.gauges.at("test.highWater"), kTasks - 1);
    const auto &hist = snap.histograms.at("test.latency");
    EXPECT_EQ(hist.count, kTasks);
    EXPECT_EQ(hist.minNanos, 1000u);
    EXPECT_EQ(hist.maxNanos, kTasks * 1000u);
    std::uint64_t bucketed = hist.overflow;
    for (std::uint64_t b : hist.buckets)
        bucketed += b;
    EXPECT_EQ(bucketed, kTasks);
    EXPECT_EQ(hist.totalNanos, 1000u * kTasks * (kTasks + 1) / 2);
}

TEST(MetricsRegistry, HistogramBucketBoundsArePowersOfTwoMicros)
{
    EXPECT_EQ(MetricsRegistry::bucketBoundNanos(0), 1000u);
    EXPECT_EQ(MetricsRegistry::bucketBoundNanos(1), 2000u);
    EXPECT_EQ(MetricsRegistry::bucketBoundNanos(10), 1024000u);

    const MetricsEnabled on;
    metrics().recordNanos("test.buckets", 1000);     // bucket 0
    metrics().recordNanos("test.buckets", 1500);     // bucket 1
    metrics().recordNanos("test.buckets",
                          MetricsRegistry::bucketBoundNanos(
                              MetricsRegistry::kHistogramBuckets - 1) +
                              1);                    // overflow
    const auto snap = metrics().snapshot();
    const auto &hist = snap.histograms.at("test.buckets");
    EXPECT_EQ(hist.buckets[0], 1u);
    EXPECT_EQ(hist.buckets[1], 1u);
    EXPECT_EQ(hist.overflow, 1u);
}

TEST(MetricsRegistry, ScopedPhaseAccumulatesWallTime)
{
    const MetricsEnabled on;
    {
        const ScopedPhase phase("test.phase");
    }
    {
        const ScopedPhase phase("test.phase");
    }
    const auto snap = metrics().snapshot();
    const auto &phase = snap.phases.at("test.phase");
    EXPECT_EQ(phase.calls, 2u);
    EXPECT_GT(phase.nanos, 0u);
    EXPECT_GT(snap.sinceEnableNanos, 0u);
}

TEST(MetricsRegistry, PoolLanesChargeBusyAndTaskCounters)
{
    const MetricsEnabled on;
    ThreadPool pool(3);
    // Workers could drain 64 trivial tasks before the submitting
    // thread claims one, so a worker-run task waits (bounded) until
    // the submitter has run a task of its own.
    const std::thread::id submitter = std::this_thread::get_id();
    std::atomic<bool> submitterRan{false};
    parallelFor(pool, 64, [&](std::size_t) {
        metrics().add("test.poolTask");
        if (std::this_thread::get_id() == submitter) {
            submitterRan.store(true, std::memory_order_release);
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!submitterRan.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counters.at("test.poolTask"), 64u);
    // The submitting thread always participates, so its lane must
    // have claimed work and charged busy time for it.
    EXPECT_GT(snap.counters.at("pool.caller.tasks"), 0u);
    EXPECT_GT(snap.counters.at("pool.caller.busyNanos"), 0u);
    std::uint64_t tasks = 0;
    for (const auto &[key, value] : snap.counters)
        if (key.rfind("pool.", 0) == 0 &&
            key.size() > 6 && key.compare(key.size() - 6, 6, ".tasks") == 0)
            tasks += value;
    EXPECT_EQ(tasks, 64u);
}

TEST(MetricsRegistry, PeakRssIsPositiveOnLinux)
{
#ifdef __linux__
    EXPECT_GT(processPeakRssBytes(), 0u);
#else
    GTEST_SKIP() << "procfs-only metric";
#endif
}

TEST(MetricsRegistry, HostProfileSerializesTheSnapshot)
{
    const MetricsEnabled on;
    metrics().add("traceCache.tensorHits", 3);
    metrics().add("traceCache.tensorMisses", 1);
    metrics().recordNanos("traceCache.synthesis", 2500);
    metrics().add("pool.worker0.busyNanos", 3000);
    metrics().add("pool.worker0.idleNanos", 1000);
    metrics().add("pool.worker0.tasks", 2);
    metrics().add("pool.stolenTasks", 2);
    metrics().gaugeMax("pool.queueDepthMax", 1);
    metrics().add("test.leftoverCounter", 9);
    {
        const ScopedPhase phase("timing");
    }

    std::ostringstream os;
    JsonWriter w(os);
    writeHostProfile(metrics().snapshot(), w);
    ASSERT_TRUE(w.complete());

    const std::string text = os.str();
    const auto doc = cnv::testsupport::Parser(text).parse();
    EXPECT_GT(doc.at("totalSeconds").number, 0.0);
    EXPECT_GE(doc.at("phaseCoverage").number, 0.0);
    EXPECT_LE(doc.at("phaseCoverage").number, 1.0);
    EXPECT_EQ(doc.at("phases").at("timing").at("calls").number, 1.0);

    const auto &cache = doc.at("traceCache");
    EXPECT_EQ(cache.at("tensorHits").number, 3.0);
    EXPECT_EQ(cache.at("tensorMisses").number, 1.0);
    EXPECT_DOUBLE_EQ(cache.at("hitRate").number, 0.75);
    EXPECT_EQ(cache.at("synthesis").at("count").number, 1.0);

    const auto &lane = doc.at("pool").at("workers").at("worker0");
    EXPECT_DOUBLE_EQ(lane.at("utilization").number, 0.75);
    EXPECT_EQ(lane.at("tasks").number, 2.0);
    EXPECT_EQ(doc.at("pool").at("stolenTasks").number, 2.0);
    EXPECT_EQ(doc.at("pool").at("queueDepthMax").number, 1.0);

    // Non-namespaced series land in the leftover maps, not the
    // structured sections.
    EXPECT_EQ(doc.at("counters").at("test.leftoverCounter").number, 9.0);
    EXPECT_FALSE(doc.at("counters").has("traceCache.tensorHits"));
    EXPECT_FALSE(doc.at("counters").has("pool.stolenTasks"));
}

TEST(MetricsRegistry, ProgressMeterPrintsWhenForcedOn)
{
    const MetricsEnabled on;
    metrics().configureProgress(MetricsRegistry::Progress::On);
    std::ostringstream captured;
    std::streambuf *old = std::cerr.rdbuf(captured.rdbuf());
    metrics().beginProgress("testnet", 2);
    metrics().tickProgress();
    metrics().tickProgress();
    metrics().endProgress();
    std::cerr.rdbuf(old);
    metrics().configureProgress(MetricsRegistry::Progress::Off);
    EXPECT_NE(captured.str().find("testnet"), std::string::npos);
    EXPECT_NE(captured.str().find("2/2"), std::string::npos);
}

TEST(MetricsRegistry, ProgressMeterSilentWhenOff)
{
    const MetricsEnabled on;
    metrics().configureProgress(MetricsRegistry::Progress::Off);
    std::ostringstream captured;
    std::streambuf *old = std::cerr.rdbuf(captured.rdbuf());
    metrics().beginProgress("quiet", 1);
    metrics().tickProgress();
    metrics().endProgress();
    std::cerr.rdbuf(old);
    EXPECT_TRUE(captured.str().empty());
}

} // namespace
