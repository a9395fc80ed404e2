#include "timing/trace_cache.h"

#include <bit>
#include <utility>
#include <vector>

#include "core/splitmix.h"
#include "nn/trace.h"
#include "sim/metrics.h"
#include "zfnaf/format.h"

namespace cnv::timing {

namespace {

/** `h` with `v` mixed in. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return core::mix64(h ^ v);
}

/** `values` with each segment's elements below its threshold zeroed;
 *  the segments repeat along each column, never past the tensor. */
tensor::NeuronTensor
pruneSegments(tensor::NeuronTensor values,
              const std::vector<nn::TraceSegment> &segments,
              const std::vector<std::int32_t> &thresholds)
{
    tensor::Fixed16 *v = values.data();
    const std::size_t n = values.size();
    for (std::size_t i = 0; i < n;)
        for (std::size_t s = 0; s < segments.size(); ++s)
            for (int d = 0; d < segments[s].depth && i < n; ++d, ++i)
                if (v[i].rawAbs() < thresholds[s])
                    v[i] = tensor::Fixed16{};
    return values;
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
                  const TraceProvider *traces)
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
    if (slot->trace.activity || slot->trace.values) {
        tensorHits_.fetch_add(1, std::memory_order_relaxed);
        sim::metrics().add("traceCache.tensorHits");
        return slot->trace;
    }
    tensorMisses_.fetch_add(1, std::memory_order_relaxed);
    sim::metrics().add("traceCache.tensorMisses");
    // One stage-1 synthesis or trace load per miss, which every other
    // lookup of the key amortizes (hostProfile.traceCache.synthesis).
    const std::uint64_t t0 = sim::metrics().nowIfEnabled();
    std::optional<tensor::NeuronTensor> external =
        traces ? traces->convInput(net, convNodeId, imageSeed) : std::nullopt;
    if (external)
        slot->trace.values =
            std::make_shared<const tensor::NeuronTensor>(std::move(*external));
    else
        slot->trace.activity = std::make_shared<const nn::Activity>(
            nn::synthesizeConvActivity(net, convNodeId, imageSeed));
    if (t0 != 0)
        sim::metrics().recordNanos(
            "traceCache.synthesis",
            sim::MetricsRegistry::nowNanos() - t0);
    return slot->trace;
}

std::shared_ptr<const tensor::NeuronTensor>
TraceCache::convInput(const nn::Network &net, int convNodeId,
                      std::uint64_t imageSeed, const TraceProvider *traces)
{
    const Trace t = trace(traceKey(net, convNodeId, imageSeed), net,
                          convNodeId, imageSeed, traces);
    return t.values ? t.values
                    : std::make_shared<const tensor::NeuronTensor>(
                          nn::synthesizeValues(*t.activity));
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
    const Trace t = trace(key.trace, net, convNodeId, imageSeed, traces);
    // Timed after the nested trace lookup so the encode histogram
    // (hostProfile.traceCache.encode) measures only the prune +
    // non-zero-count work, not a first-touch synthesis underneath.
    const std::uint64_t t0 = sim::metrics().nowIfEnabled();
    CountMap counts;
    if (t.values)
        counts = pruned ? zfnaf::nonZeroCountMap(
                              pruneSegments(*t.values, key.trace.segments,
                                            key.thresholds),
                              brickSize)
                        : zfnaf::nonZeroCountMap(*t.values, brickSize);
    else
        counts = pruned ? zfnaf::nonZeroCountMap(
                              nn::prunedMask(*t.activity, prune), brickSize)
                        : zfnaf::nonZeroCountMap(t.activity->mask, brickSize);
    slot->value = std::make_shared<const CountMap>(std::move(counts));
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
