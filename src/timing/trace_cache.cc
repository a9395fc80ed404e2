#include "timing/trace_cache.h"

#include <bit>
#include <utility>
#include <vector>

#include "nn/trace.h"
#include "sim/logging.h"
#include "sim/metrics.h"
#include "zfnaf/format.h"

namespace cnv::timing {

namespace {

/** Everything synthesis reads about one conv layer's input for one
 *  image: the key of its cached trace. */
std::string
traceKey(const nn::Network &net, int convNodeId, std::uint64_t imageSeed,
         const std::vector<nn::TraceSegment> &segments)
{
    const nn::Node &conv = net.node(convNodeId);
    std::string key = sim::strfmt("{}#{}#{}#{}x{}x{}#", net.name(),
                                  convNodeId, imageSeed, conv.inShape.x,
                                  conv.inShape.y, conv.inShape.z);
    for (const nn::TraceSegment &seg : segments)
        key += sim::strfmt("{}:{},", seg.depth, seg.producerConvIndex);
    // Bit pattern: exact, unlike a decimal rendering.
    key += std::to_string(
        std::bit_cast<std::uint64_t>(conv.conv.inputZeroFraction));
    return key;
}

} // namespace

TraceCache::Trace
TraceCache::trace(const std::string &key, const nn::Network &net,
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
    const std::string key = traceKey(net, convNodeId, imageSeed,
                                     nn::inputSegments(net, convNodeId));
    return trace(key, net, convNodeId, imageSeed, traces, true).values;
}

std::shared_ptr<const CountMap>
TraceCache::countMap(const nn::Network &net, int convNodeId,
                     std::uint64_t imageSeed, const TraceProvider *traces,
                     const nn::PruneConfig *prune, int brickSize)
{
    const std::vector<nn::TraceSegment> inputs =
        nn::inputSegments(net, convNodeId);
    const std::string key = traceKey(net, convNodeId, imageSeed, inputs);
    // Each depth range is pruned with its producer's threshold, and
    // those thresholds are all of `prune` the map reads, so they key
    // it: configs that agree on them share the map. A null or empty
    // config keys as "-", apart from an all-zero one.
    std::vector<zfnaf::DepthThreshold> segments;
    std::string thresholds = "-";
    bool pruned = false;
    if (prune && !prune->thresholds.empty()) {
        thresholds.clear();
        for (const nn::TraceSegment &seg : inputs) {
            const std::int32_t t = seg.producerConvIndex >= 0
                ? prune->forConvIndex(
                      static_cast<std::size_t>(seg.producerConvIndex))
                : 0;
            pruned = pruned || t > 0;
            segments.push_back({seg.depth, t});
            thresholds += sim::strfmt("{},", t);
        }
    }
    std::shared_ptr<CountSlot> slot;
    {
        const core::MutexLock lock(mutex_);
        auto &entry =
            counts_[sim::strfmt("{}#{}#{}", key, thresholds, brickSize)];
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
    const Trace t = trace(key, net, convNodeId, imageSeed, traces,
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
