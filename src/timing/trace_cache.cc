#include "timing/trace_cache.h"

#include <bit>
#include <utility>
#include <vector>

#include "nn/trace.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "zfnaf/format.h"

namespace cnv::timing {

namespace {

/** `h` with `v` mixed in. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return sim::mix64(h ^ v);
}

} // namespace

TraceCache::TraceKey
TraceCache::traceKey(const nn::Network &net, int convNodeId,
                     std::uint64_t imageSeed)
{
    const nn::Node &conv = net.node(convNodeId);
    // Bit pattern: exact, unlike a decimal rendering.
    return {net.name(), convNodeId, imageSeed, conv.inShape,
            nn::inputSegments(net, convNodeId),
            std::bit_cast<std::uint64_t>(conv.conv.inputZeroFraction)};
}

std::size_t
TraceCache::KeyHash::operator()(const TraceKey &k) const
{
    std::uint64_t h = std::hash<std::string>{}(k.net);
    h = fold(h, static_cast<std::uint64_t>(k.convNodeId));
    h = fold(h, k.imageSeed);
    h = fold(h, static_cast<std::uint64_t>(k.inShape.x));
    h = fold(h, static_cast<std::uint64_t>(k.inShape.y));
    h = fold(h, static_cast<std::uint64_t>(k.inShape.z));
    for (const nn::TraceSegment &seg : k.segments) {
        h = fold(h, static_cast<std::uint64_t>(seg.depth));
        h = fold(h, static_cast<std::uint64_t>(seg.producerConvIndex));
    }
    return fold(h, k.zeroFractionBits);
}

std::size_t
TraceCache::KeyHash::operator()(const CountKey &k) const
{
    std::uint64_t h = (*this)(k.trace);
    for (std::int32_t t : k.thresholds)
        h = fold(h, static_cast<std::uint64_t>(t));
    h = fold(h, k.thresholds.size());
    return fold(h, static_cast<std::uint64_t>(k.brickSize));
}

TraceCache::Trace
TraceCache::trace(const TraceKey &key, const nn::Network &net,
                  int convNodeId, std::uint64_t imageSeed,
                  const TraceProvider *traces, bool needValues)
{
    std::shared_ptr<TraceSlot> slot;
    {
        const core::MutexLock lock(mutex_);
        auto &entry = tensors_[key];
        if (!entry)
            entry = std::make_shared<TraceSlot>();
        slot = entry;
    }
    const core::MutexLock lock(slot->m);
    if (slot->values || slot->activity) {
        tensorHits_.fetch_add(1, std::memory_order_relaxed);
        sim::metrics().add("traceCache.tensorHits");
        if (slot->values || !needValues)
            return {slot->activity, slot->values};
    } else {
        tensorMisses_.fetch_add(1, std::memory_order_relaxed);
        sim::metrics().add("traceCache.tensorMisses");
    }
    // The synthesis (or trace-load) cost every other lookup of this
    // key amortizes: stage 1, stage 2 or both, whichever this lookup
    // ran. Its latency distribution feeds
    // hostProfile.traceCache.synthesis.
    const std::uint64_t t0 = sim::metrics().nowIfEnabled();
    std::optional<tensor::NeuronTensor> external;
    if (traces)
        external = traces->convInput(net, convNodeId, imageSeed);
    if (external) {
        slot->values =
            std::make_shared<const tensor::NeuronTensor>(std::move(*external));
    } else {
        if (!slot->activity)
            slot->activity = std::make_shared<const nn::Activity>(
                nn::synthesizeConvActivity(net, convNodeId, imageSeed));
        if (needValues) {
            slot->values = std::make_shared<const tensor::NeuronTensor>(
                nn::synthesizeValues(*slot->activity));
            slot->activity.reset();
        }
    }
    if (t0 != 0)
        sim::metrics().recordNanos(
            "traceCache.synthesis",
            sim::MetricsRegistry::nowNanos() - t0);
    return {slot->activity, slot->values};
}

std::shared_ptr<const tensor::NeuronTensor>
TraceCache::convInput(const nn::Network &net, int convNodeId,
                      std::uint64_t imageSeed, const TraceProvider *traces)
{
    return trace(traceKey(net, convNodeId, imageSeed), net, convNodeId,
                 imageSeed, traces, true)
        .values;
}

std::shared_ptr<const CountMap>
TraceCache::countMap(const nn::Network &net, int convNodeId,
                     std::uint64_t imageSeed, const TraceProvider *traces,
                     const nn::PruneConfig *prune, int brickSize)
{
    CountKey key{traceKey(net, convNodeId, imageSeed), {}, brickSize};
    // Each depth range is pruned with its producer's threshold, and
    // those thresholds are all of `prune` the map reads, so they key
    // it: configs that agree on them share the map. A null or empty
    // config keys with none, apart from an all-zero one.
    bool pruned = false;
    if (prune && !prune->thresholds.empty()) {
        for (const nn::TraceSegment &seg : key.trace.segments) {
            const std::int32_t t = seg.producerConvIndex >= 0
                ? prune->forConvIndex(
                      static_cast<std::size_t>(seg.producerConvIndex))
                : 0;
            pruned = pruned || t > 0;
            key.thresholds.push_back(t);
        }
    }
    std::shared_ptr<CountSlot> slot;
    {
        const core::MutexLock lock(mutex_);
        auto &entry = counts_[key];
        if (!entry)
            entry = std::make_shared<CountSlot>();
        slot = entry;
    }
    const core::MutexLock lock(slot->m);
    if (slot->value) {
        countHits_.fetch_add(1, std::memory_order_relaxed);
        sim::metrics().add("traceCache.countMapHits");
        return slot->value;
    }
    countMisses_.fetch_add(1, std::memory_order_relaxed);
    sim::metrics().add("traceCache.countMapMisses");
    // Without thresholds the counts are the mask's; magnitudes are
    // drawn only when a threshold or a provider needs them.
    const Trace t = trace(key.trace, net, convNodeId, imageSeed, traces,
                          pruned || traces != nullptr);
    // Timed after the nested trace lookup so the encode histogram
    // (hostProfile.traceCache.encode) measures only the prune +
    // non-zero-count work, not a first-touch synthesis underneath.
    const std::uint64_t t0 = sim::metrics().nowIfEnabled();
    if (t.activity) {
        slot->value = std::make_shared<const CountMap>(
            zfnaf::nonZeroCountMap(t.activity->mask, brickSize));
    } else if (pruned) {
        // Segmented counting folds the per-producer thresholds into
        // the count predicate — same counts as prune-then-count,
        // without copying the tensor.
        std::vector<zfnaf::DepthThreshold> segments;
        for (std::size_t i = 0; i < key.thresholds.size(); ++i)
            segments.push_back(
                {key.trace.segments[i].depth, key.thresholds[i]});
        slot->value = std::make_shared<const CountMap>(
            zfnaf::nonZeroCountMap(*t.values, brickSize, segments));
    } else {
        slot->value = std::make_shared<const CountMap>(
            zfnaf::nonZeroCountMap(*t.values, brickSize));
    }
    if (t0 != 0)
        sim::metrics().recordNanos("traceCache.encode",
                                   sim::MetricsRegistry::nowNanos() - t0);
    return slot->value;
}

TraceCache::Stats
TraceCache::stats() const
{
    Stats s;
    s.tensorHits = tensorHits_.load(std::memory_order_relaxed);
    s.tensorMisses = tensorMisses_.load(std::memory_order_relaxed);
    s.countMapHits = countHits_.load(std::memory_order_relaxed);
    s.countMapMisses = countMisses_.load(std::memory_order_relaxed);
    return s;
}

} // namespace cnv::timing
