/**
 * @file
 * MetricsRegistry implementation: the sanctioned steady-clock read,
 * the thread-safe series maps, the rate-limited progress meter, the
 * /proc peak-RSS probe, and the hostProfile JSON emitter (the keys
 * emitted here are the wire schema cnvlint's schema-docs rule checks
 * against docs/observability.md).
 */

#include "sim/metrics.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/simd.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"

namespace cnv::sim {

namespace {

/** Progress lines are throttled to one per this many nanoseconds. */
constexpr std::uint64_t kProgressIntervalNanos = 100'000'000;

double
nanosToSeconds(std::uint64_t nanos)
{
    return static_cast<double>(nanos) / 1e9;
}

bool
stderrIsTty()
{
#if defined(__unix__) || defined(__APPLE__)
    return isatty(STDERR_FILENO) != 0;
#else
    return false;
#endif
}

} // namespace

void
MetricsRegistry::setEnabled(bool on)
{
    const core::MutexLock lock(mutex_);
    if (on) {
        counters_.clear();
        gauges_.clear();
        phases_.clear();
        histograms_.clear();
        epochNanos_.store(nowNanos(), std::memory_order_relaxed);
    }
    enabled_.store(on, std::memory_order_relaxed);
}

std::uint64_t
MetricsRegistry::nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
MetricsRegistry::secondsSinceEnable() const
{
    if (!enabled())
        return 0.0;
    return nanosToSeconds(
        nowNanos() - epochNanos_.load(std::memory_order_relaxed));
}

void
MetricsRegistry::add(std::string_view counter, std::uint64_t delta)
{
    if (!enabled())
        return;
    const core::MutexLock lock(mutex_);
    counters_[std::string(counter)] += delta;
}

void
MetricsRegistry::gaugeMax(std::string_view gauge, std::uint64_t value)
{
    if (!enabled())
        return;
    const core::MutexLock lock(mutex_);
    std::uint64_t &slot = gauges_[std::string(gauge)];
    if (value > slot)
        slot = value;
}

void
MetricsRegistry::addPhaseNanos(std::string_view phase, std::uint64_t nanos)
{
    if (!enabled())
        return;
    const core::MutexLock lock(mutex_);
    Phase &p = phases_[std::string(phase)];
    p.nanos += nanos;
    p.calls += 1;
}

void
MetricsRegistry::recordNanos(std::string_view histogram,
                             std::uint64_t nanos)
{
    if (!enabled())
        return;
    const core::MutexLock lock(mutex_);
    Histogram &h = histograms_[std::string(histogram)];
    if (h.count == 0 || nanos < h.minNanos)
        h.minNanos = nanos;
    if (nanos > h.maxNanos)
        h.maxNanos = nanos;
    h.count += 1;
    h.totalNanos += nanos;
    for (int i = 0; i < kHistogramBuckets; ++i) {
        if (nanos <= bucketBoundNanos(i)) {
            h.buckets[static_cast<std::size_t>(i)] += 1;
            return;
        }
    }
    h.overflow += 1;
}

bool
MetricsRegistry::progressVisible() const
{
    switch (progressMode_) {
      case Progress::Off: return false;
      case Progress::On: return true;
      case Progress::Auto: return stderrIsTty();
    }
    return false;
}

void
MetricsRegistry::configureProgress(Progress mode)
{
    const core::MutexLock lock(mutex_);
    progressMode_ = mode;
}

void
MetricsRegistry::beginProgress(std::string label, std::uint64_t totalUnits)
{
    const core::MutexLock lock(mutex_);
    progressLabel_ = std::move(label);
    progressTotal_ = totalUnits;
    progressDone_ = 0;
    progressStartNanos_ = nowNanos();
    progressLastPrintNanos_ = 0;
    progressActive_ = true;
}

void
MetricsRegistry::tickProgress(std::uint64_t units)
{
    const core::MutexLock lock(mutex_);
    if (!progressActive_)
        return;
    progressDone_ += units;
    if (!progressVisible())
        return;
    const std::uint64_t now = nowNanos();
    if (now - progressLastPrintNanos_ < kProgressIntervalNanos)
        return;
    progressLastPrintNanos_ = now;
    printProgress(/*final=*/false);
}

void
MetricsRegistry::endProgress()
{
    const core::MutexLock lock(mutex_);
    if (!progressActive_)
        return;
    progressActive_ = false;
    if (progressVisible())
        printProgress(/*final=*/true);
}

void
MetricsRegistry::printProgress(bool final)
{
    const double elapsed =
        nanosToSeconds(nowNanos() - progressStartNanos_);
    const double rate =
        elapsed > 0.0 ? static_cast<double>(progressDone_) / elapsed : 0.0;
    const std::uint64_t left =
        progressTotal_ > progressDone_ ? progressTotal_ - progressDone_
                                       : 0;
    const double eta =
        rate > 0.0 ? static_cast<double>(left) / rate : 0.0;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const char *key : {"traceCache.tensorHits",
                            "traceCache.countMapHits"}) {
        const auto it = counters_.find(key);
        if (it != counters_.end())
            hits += it->second;
    }
    lookups = hits;
    for (const char *key : {"traceCache.tensorMisses",
                            "traceCache.countMapMisses"}) {
        const auto it = counters_.find(key);
        if (it != counters_.end())
            lookups += it->second;
    }
    std::ostream &os = std::cerr;
    os << '\r' << progressLabel_ << ": " << progressDone_ << '/'
       << progressTotal_ << " runs";
    {
        // One decimal is plenty for a status line; avoid touching
        // the stream's persistent formatting state.
        char buf[64];
        std::snprintf(buf, sizeof buf, "  %.1f runs/s  ETA %.1fs", rate,
                      eta);
        os << buf;
    }
    if (lookups > 0) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "  cache hit %.0f%%",
                      100.0 * static_cast<double>(hits) /
                          static_cast<double>(lookups));
        os << buf;
    }
    os << "   ";
    if (final)
        os << '\n';
    os.flush();
}

MetricsRegistry::Snapshot
MetricsRegistry::snapshot() const
{
    Snapshot snap;
    snap.peakRssBytes = processPeakRssBytes();
    const core::MutexLock lock(mutex_);
    snap.enabled = enabled();
    if (snap.enabled)
        snap.sinceEnableNanos =
            nowNanos() - epochNanos_.load(std::memory_order_relaxed);
    snap.counters = counters_;
    snap.gauges = gauges_;
    snap.phases = phases_;
    snap.histograms = histograms_;
    return snap;
}

MetricsRegistry &
metrics()
{
    // Intentionally immortal: the global pool's workers can record
    // idle time while static destruction is unwinding, which must
    // not race a destroyed registry. The object stays reachable
    // through the static pointer, so leak checkers are quiet.
    static MetricsRegistry *registry = new MetricsRegistry;
    return *registry;
}

std::uint64_t
processPeakRssBytes()
{
#if defined(__linux__)
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        // "VmHWM:    12345 kB" — parse the first digit run.
        std::size_t begin = line.find_first_of("0123456789");
        if (begin == std::string::npos)
            return 0;
        std::uint64_t kib = 0;
        const auto *first = line.data() + begin;
        std::from_chars(first, line.data() + line.size(), kib);
        return kib * 1024;
    }
#endif
    return 0;
}

namespace {

/** Per-lane accumulation parsed out of the pool.* counters. */
struct LaneRow
{
    std::uint64_t busyNanos = 0;
    std::uint64_t idleNanos = 0;
    std::uint64_t tasks = 0;
};

void
writeHistogramJson(const MetricsRegistry::Histogram &h, JsonWriter &w)
{
    w.beginObject();
    w.key("count").value(h.count);
    w.key("totalSeconds").value(nanosToSeconds(h.totalNanos));
    w.key("minSeconds").value(nanosToSeconds(h.minNanos));
    w.key("maxSeconds").value(nanosToSeconds(h.maxNanos));
    w.key("overflow").value(h.overflow);
    w.key("buckets").beginArray();
    for (int i = 0; i < MetricsRegistry::kHistogramBuckets; ++i) {
        const std::uint64_t count =
            h.buckets[static_cast<std::size_t>(i)];
        if (count == 0)
            continue; // sparse: empty buckets carry no information
        w.beginObject();
        w.key("leSeconds")
            .value(nanosToSeconds(MetricsRegistry::bucketBoundNanos(i)));
        w.key("count").value(count);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

void
writeHostProfile(const MetricsRegistry::Snapshot &snap, JsonWriter &w)
{
    // Partition the flat counter namespace into the structured
    // sections the schema documents; anything unclaimed surfaces
    // verbatim under "counters"/"gauges" so no series can hide.
    std::map<std::string, LaneRow> lanes;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::uint64_t> cache;
    std::uint64_t stolenTasks = 0;
    for (const auto &[name, value] : snap.counters) {
        if (name == "pool.stolenTasks") {
            stolenTasks = value;
            continue;
        }
        if (name.rfind("traceCache.", 0) == 0 &&
            name.find('.', 11) == std::string::npos) {
            cache[name.substr(11)] = value;
            continue;
        }
        if (name.rfind("pool.", 0) == 0) {
            const std::size_t dot = name.rfind('.');
            const std::string lane = name.substr(5, dot - 5);
            const std::string field = name.substr(dot + 1);
            if (dot > 5) {
                LaneRow &row = lanes[lane];
                if (field == "busyNanos") {
                    row.busyNanos = value;
                    continue;
                }
                if (field == "idleNanos") {
                    row.idleNanos = value;
                    continue;
                }
                if (field == "tasks") {
                    row.tasks = value;
                    continue;
                }
            }
        }
        counters[name] = value;
    }
    std::map<std::string, std::uint64_t> gauges = snap.gauges;
    std::uint64_t queueDepthMax = 0;
    if (const auto it = gauges.find("pool.queueDepthMax");
        it != gauges.end()) {
        queueDepthMax = it->second;
        gauges.erase(it);
    }

    w.beginObject();
    w.key("totalSeconds").value(nanosToSeconds(snap.sinceEnableNanos));
    w.key("peakRssBytes").value(snap.peakRssBytes);
    // Build provenance, so two host profiles can be told apart by
    // the toolchain and machine that produced them.
    w.key("provenance").beginObject();
    w.key("compiler").value(CNV_COMPILER);
    w.key("buildType").value(CNV_BUILD_TYPE);
    w.key("simdBackend").value(core::simd::instructionSet());
    w.key("hardwareConcurrency")
        .value(static_cast<std::uint64_t>(hardwareConcurrency()));
    w.endObject();

    std::uint64_t phaseNanos = 0;
    for (const auto &[name, phase] : snap.phases)
        phaseNanos += phase.nanos;
    const double coverage =
        snap.sinceEnableNanos > 0
            ? static_cast<double>(phaseNanos) /
                  static_cast<double>(snap.sinceEnableNanos)
            : 0.0;
    w.key("phaseCoverage").value(coverage < 1.0 ? coverage : 1.0);
    w.key("phases").beginObject();
    for (const auto &[name, phase] : snap.phases) {
        w.key(name).beginObject();
        w.key("seconds").value(nanosToSeconds(phase.nanos));
        w.key("calls").value(phase.calls);
        w.endObject();
    }
    w.endObject();

    w.key("pool").beginObject();
    w.key("queueDepthMax").value(queueDepthMax);
    w.key("stolenTasks").value(stolenTasks);
    w.key("workers").beginObject();
    for (const auto &[lane, row] : lanes) {
        const std::uint64_t span = row.busyNanos + row.idleNanos;
        w.key(lane).beginObject();
        w.key("busySeconds").value(nanosToSeconds(row.busyNanos));
        w.key("idleSeconds").value(nanosToSeconds(row.idleNanos));
        w.key("tasks").value(row.tasks);
        w.key("utilization")
            .value(span > 0 ? static_cast<double>(row.busyNanos) /
                                  static_cast<double>(span)
                            : 0.0);
        w.endObject();
    }
    w.endObject();
    w.endObject();

    w.key("traceCache").beginObject();
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const char *field : {"tensorHits", "tensorMisses",
                              "countMapHits", "countMapMisses"}) {
        const auto it = cache.find(field);
        const std::uint64_t value = it != cache.end() ? it->second : 0;
        w.key(field).value(value);
        lookups += value;
        if (it != cache.end() &&
            std::string_view(field).find("Hits") != std::string_view::npos)
            hits += value;
    }
    w.key("hitRate").value(
        lookups > 0
            ? static_cast<double>(hits) / static_cast<double>(lookups)
            : 0.0);
    for (const char *name : {"synthesis", "encode"}) {
        const auto it =
            snap.histograms.find(std::string("traceCache.") + name);
        if (it == snap.histograms.end())
            continue;
        w.key(name);
        writeHistogramJson(it->second, w);
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, h] : snap.histograms) {
        if (name.rfind("traceCache.", 0) == 0)
            continue; // surfaced inside the traceCache section
        w.key(name);
        writeHistogramJson(h, w);
    }
    w.endObject();

    w.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        w.key(name).value(value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, value] : gauges)
        w.key(name).value(value);
    w.endObject();
    w.endObject();
}

} // namespace cnv::sim
