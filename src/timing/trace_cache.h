/**
 * @file
 * Shared, thread-safe cache of per-image conv-layer traces, and the
 * one home of the per-brick non-zero count maps the timing models
 * read: every simulateNetwork() call fetches them through a cache (a
 * call without one uses its own), so sharing one across a
 * six-architecture registry sweep synthesizes (or loads) each tensor
 * once per image instead of six times. The cache stores one
 * *unpruned* trace per conv layer and image — synthesis with pruning
 * is exactly synthesis-unpruned with each producer segment's values
 * below its threshold zeroed, so one trace serves baseline, CNV and
 * every pruned variant — and the derived count maps keyed
 * additionally by the thresholds they read and the brick size. A
 * trace key covers everything synthesis reads: network name, node,
 * image seed, the layer's input shape, its producer segments and its
 * calibrated input zero fraction, so two builds of one network at
 * different scales never share a trace. Keys are plain structs
 * compared field by field, so no two lookups alias across a field
 * boundary and a hit formats no string.
 *
 * A pruned count map reads only its producer segments' thresholds,
 * one per nn::inputSegments() entry, so those key it rather than the
 * whole prune config: the candidates of a threshold search that
 * agree on a layer's producers share its map, and a search over a
 * ladder of L rungs holds at most L maps per single-producer layer
 * and image. A null or empty config keys with no thresholds, apart
 * from an all-zero one.
 *
 * A trace slot is set once, at its miss: to the provider's tensor
 * when a TraceProvider supplies one, else to the stage-1 nn::Activity.
 * A synthetic count map counts nn::prunedMask(), which reads the
 * magnitude draws but no values, and convInput() draws the values
 * afresh without keeping them. A provider's pruned map counts a copy
 * of its tensor with each segment zeroed below its threshold.
 *
 * Thread safety: a global mutex guards only the key -> slot maps;
 * each slot carries its own mutex, so two threads asking for the
 * same missing key serialize on that slot (one computes, the other
 * waits and hits) while different keys proceed concurrently. Hit
 * and miss totals are therefore deterministic: misses == distinct
 * keys ever requested, independent of the job count and of lookup
 * order.
 *
 * One cache assumes one TraceProvider (or none) for its lifetime;
 * callers pass the provider per lookup only so the cache does not
 * own it.
 */

#ifndef CNV_TIMING_TRACE_CACHE_H
#define CNV_TIMING_TRACE_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sync.h"
#include "nn/network.h"
#include "nn/trace.h"
#include "timing/network_model.h"

namespace cnv::timing {

class TraceCache
{
  public:
    /** Snapshot of the hit/miss counters (cnv-report-v1 summary.cache). */
    struct Stats
    {
        std::uint64_t tensorHits = 0;
        std::uint64_t tensorMisses = 0;
        std::uint64_t countMapHits = 0;
        std::uint64_t countMapMisses = 0;
    };

    TraceCache() = default;
    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The unpruned input tensor of one conv layer for one image: the
     * provider's trace when it supplies one, else stage 2 drawn afresh
     * on the cached activity. Identical to nn::synthesizeConvInput().
     */
    std::shared_ptr<const tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed, const TraceProvider *traces);

    /**
     * Per-brick non-zero counts of the layer input, after applying
     * `prune` (may be null) to the cached unpruned trace. This is
     * the only artifact the timing models consume.
     */
    std::shared_ptr<const CountMap>
    countMap(const nn::Network &net, int convNodeId,
             std::uint64_t imageSeed, const TraceProvider *traces,
             const nn::PruneConfig *prune, int brickSize);

    Stats stats() const;

  private:
    /** Everything synthesis reads about one conv layer's input for
     *  one image: the key of its cached trace. */
    struct TraceKey
    {
        std::string net;
        int convNodeId = 0;
        std::uint64_t imageSeed = 0;
        tensor::Shape3 inShape;
        std::vector<nn::TraceSegment> segments;
        /** The calibrated input zero fraction's bit pattern. */
        std::uint64_t zeroFractionBits = 0;

        bool operator==(const TraceKey &) const = default;
    };

    /** A count map's key: its trace's, the threshold of each input
     *  segment (none for a null or empty prune config) and the brick
     *  size. */
    struct CountKey
    {
        TraceKey trace;
        std::vector<std::int32_t> thresholds;
        int brickSize = 0;

        bool operator==(const CountKey &) const = default;
    };

    /** The trace key of one conv layer's input for one image. */
    static TraceKey traceKey(const nn::Network &net, int convNodeId,
                             std::uint64_t imageSeed);

    /** Hashes every field of either key; the maps compare keys field
     *  by field. */
    struct KeyHash
    {
        std::size_t operator()(const TraceKey &k) const;
        std::size_t operator()(const CountKey &k) const;
    };

    /** One cached count map: its own mutex serializes the
     *  compute-once protocol per key. */
    struct CountSlot
    {
        core::Mutex m;
        std::shared_ptr<const CountMap> value CNV_GUARDED_BY(m);
    };

    /** A provider's tensor or a stage-1 activity: one member is set. */
    struct Trace
    {
        std::shared_ptr<const nn::Activity> activity;
        std::shared_ptr<const tensor::NeuronTensor> values;
    };

    /** One cached trace, empty until its miss sets it. */
    struct TraceSlot
    {
        core::Mutex m;
        Trace trace CNV_GUARDED_BY(m);
    };

    /** The trace under `key`, loaded or synthesized at its miss;
     *  counts the lookup as a tensor hit or miss. */
    Trace trace(const TraceKey &key, const nn::Network &net,
                int convNodeId, std::uint64_t imageSeed,
                const TraceProvider *traces);

    /** Guards the two key -> slot maps (not slot contents). */
    core::Mutex mutex_;
    std::unordered_map<TraceKey, std::shared_ptr<TraceSlot>, KeyHash>
        tensors_ CNV_GUARDED_BY(mutex_);
    std::unordered_map<CountKey, std::shared_ptr<CountSlot>, KeyHash>
        counts_ CNV_GUARDED_BY(mutex_);

    std::atomic<std::uint64_t> tensorHits_{0};
    std::atomic<std::uint64_t> tensorMisses_{0};
    std::atomic<std::uint64_t> countHits_{0};
    std::atomic<std::uint64_t> countMisses_{0};
};

} // namespace cnv::timing

#endif // CNV_TIMING_TRACE_CACHE_H
