/**
 * @file
 * Tests for timing::TraceCache: tensors and count maps are
 * bit-identical to the inline synthesis path (with and without
 * pruning), mask-derived count maps equal the tensor's, hit/miss
 * counters are exact and independent of lookup order, trace keys
 * tell scaled builds of one network apart, pruned count maps are
 * keyed by their producers' thresholds alone, keys never alias across
 * field boundaries, concurrent lookups of
 * one key compute it once, and simulateNetwork times every conv
 * layer on the reference synthesis's counts with and without a
 * shared cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/parallel.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using dadiannao::NodeConfig;

TEST(TraceCache, TensorMatchesInlineSynthesis)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::TraceCache cache;
    for (int nodeId : net->convNodeIds()) {
        const auto cached = cache.convInput(*net, nodeId, 7, nullptr);
        const auto inline_ =
            nn::synthesizeConvInput(*net, nodeId, 7, nullptr);
        EXPECT_EQ(*cached, inline_);
    }
}

TEST(TraceCache, CountMapMatchesInlinePathWithPruning)
{
    // Every zoo net's conv inputs under one threshold everywhere, at
    // the edges of the magnitude cutoff: nothing pruned (0, 1), the
    // smallest magnitudes (2, 3), either side of the end of the draw
    // table (4096), the largest magnitude and past it.
    const NodeConfig cfg;
    for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016);
        timing::TraceCache cache;
        for (std::int32_t t :
             {0, 1, 2, 3, 4095, 4096, 4097, 32767, 32768}) {
            nn::PruneConfig prune;
            prune.thresholds.assign(
                static_cast<std::size_t>(net->convLayerCount()), t);
            for (int nodeId : net->convNodeIds()) {
                // Inline path: synthesize with pruning applied directly.
                const auto pruned =
                    nn::synthesizeConvInput(*net, nodeId, 3, &prune);
                EXPECT_EQ(*cache.countMap(*net, nodeId, 3, nullptr, &prune,
                                          cfg.brickSize),
                          zfnaf::nonZeroCountMap(pruned, cfg.brickSize))
                    << nn::zoo::netName(id) << " "
                    << net->node(nodeId).name << " t " << t;
            }
        }
    }

    // Google's concat inputs with a different threshold per producer
    // branch, at brick sizes whose bricks straddle segment edges.
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016);
    const std::int32_t branch[] = {64, 2, 4097, 0};
    timing::TraceCache cache;
    int concatInputs = 0;
    for (int nodeId : net->convNodeIds()) {
        const auto segments = nn::inputSegments(*net, nodeId);
        if (segments.size() < 2)
            continue;
        ++concatInputs;
        nn::PruneConfig prune;
        prune.thresholds.assign(
            static_cast<std::size_t>(net->convLayerCount()), 0);
        for (std::size_t k = 0; k < segments.size(); ++k)
            prune.thresholds[static_cast<std::size_t>(
                segments[k].producerConvIndex)] = branch[k % 4];
        const auto pruned = nn::synthesizeConvInput(*net, nodeId, 3, &prune);
        for (int brick : {16, 8, 3})
            EXPECT_EQ(*cache.countMap(*net, nodeId, 3, nullptr, &prune,
                                      brick),
                      zfnaf::nonZeroCountMap(pruned, brick))
                << net->node(nodeId).name << " brick " << brick;
    }
    EXPECT_GT(concatInputs, 0);
}

TEST(TraceCache, MaskCountMapsMatchTensorCountMaps)
{
    // Google's concat inputs have producer segments whose boundaries
    // fall inside bricks of 3 neurons.
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016);
    const int bricks[] = {16, 8, 3};
    timing::TraceCache cache;
    bool straddles = false;
    for (int nodeId : net->convNodeIds()) {
        // Unpruned count maps come from the stage-1 mask the slot
        // holds, whichever lookup of the trace comes first; convInput
        // draws the values on top of it without keeping them.
        std::vector<std::shared_ptr<const timing::CountMap>> fromMask;
        for (int brick : bricks)
            fromMask.push_back(
                cache.countMap(*net, nodeId, 4, nullptr, nullptr, brick));
        const auto values = cache.convInput(*net, nodeId, 4, nullptr);
        EXPECT_EQ(*values, nn::synthesizeConvInput(*net, nodeId, 4));
        for (std::size_t i = 0; i < fromMask.size(); ++i)
            EXPECT_EQ(*fromMask[i],
                      zfnaf::nonZeroCountMap(*values, bricks[i]))
                << net->node(nodeId).name << " brick " << bricks[i];
        int z = 0;
        for (const nn::TraceSegment &seg : nn::inputSegments(*net, nodeId)) {
            z += seg.depth;
            straddles = straddles ||
                        (z < net->node(nodeId).inShape.z && z % 3 != 0);
        }
    }
    EXPECT_TRUE(straddles);
}

TEST(TraceCache, StatsIndependentOfLookupOrder)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    nn::PruneConfig prune;
    prune.thresholds.assign(
        static_cast<std::size_t>(net->convLayerCount()), 16);
    auto run = [&](bool countsFirst) {
        timing::TraceCache cache;
        for (int nodeId : net->convNodeIds()) {
            if (countsFirst)
                cache.countMap(*net, nodeId, 2, nullptr, nullptr, 16);
            const auto values = cache.convInput(*net, nodeId, 2, nullptr);
            EXPECT_EQ(*values, nn::synthesizeConvInput(*net, nodeId, 2));
            if (!countsFirst)
                cache.countMap(*net, nodeId, 2, nullptr, nullptr, 16);
            cache.countMap(*net, nodeId, 2, nullptr, &prune, 16);
        }
        return cache.stats();
    };
    const auto a = run(true);
    const auto b = run(false);
    const auto convs = static_cast<std::uint64_t>(net->convLayerCount());
    EXPECT_EQ(a.tensorMisses, convs);
    EXPECT_EQ(a.tensorHits, 2 * convs);
    EXPECT_EQ(a.countMapMisses, 2 * convs);
    EXPECT_EQ(a.tensorMisses, b.tensorMisses);
    EXPECT_EQ(a.tensorHits, b.tensorHits);
    EXPECT_EQ(a.countMapMisses, b.countMapMisses);
    EXPECT_EQ(a.countMapHits, b.countMapHits);
}

TEST(TraceCache, ScaledBuildsOfOneNetworkKeepTheirOwnTraces)
{
    // Same name and node ids, different input shapes: one cache must
    // give each build its own trace.
    const auto full = nn::zoo::build(nn::zoo::NetId::Vgg19, 1);
    const auto small = nn::zoo::build(nn::zoo::NetId::Vgg19, 1, 8);
    ASSERT_EQ(full->name(), small->name());
    const int nodeId = full->convNodeIds().front();
    ASSERT_EQ(nodeId, small->convNodeIds().front());
    ASSERT_NE(full->node(nodeId).inShape, small->node(nodeId).inShape);

    timing::TraceCache cache;
    cache.convInput(*full, nodeId, 3, nullptr);
    cache.countMap(*full, nodeId, 3, nullptr, nullptr, 16);
    const auto values = cache.convInput(*small, nodeId, 3, nullptr);
    const auto expected = nn::synthesizeConvInput(*small, nodeId, 3);
    EXPECT_EQ(*values, expected);
    EXPECT_EQ(*cache.countMap(*small, nodeId, 3, nullptr, nullptr, 16),
              zfnaf::nonZeroCountMap(expected, 16));
    EXPECT_EQ(cache.stats().tensorMisses, 2u);
}

TEST(TraceCache, HitAndMissCountersAreExact)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const int nodeId = net->convNodeIds().front();
    timing::TraceCache cache;

    cache.countMap(*net, nodeId, 1, nullptr, nullptr, 16);
    auto s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 1u);
    EXPECT_EQ(s.countMapHits, 0u);
    EXPECT_EQ(s.tensorMisses, 1u);

    // Same key: a pure hit, nothing recomputed.
    cache.countMap(*net, nodeId, 1, nullptr, nullptr, 16);
    s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 1u);
    EXPECT_EQ(s.countMapHits, 1u);
    EXPECT_EQ(s.tensorMisses, 1u);

    // Different brick size: new count map, but the tensor is shared.
    cache.countMap(*net, nodeId, 1, nullptr, nullptr, 8);
    s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 2u);
    EXPECT_EQ(s.tensorMisses, 1u);
    EXPECT_EQ(s.tensorHits, 1u);
}

/** The thresholds a pruned count map of `convNodeId` reads: its
 *  producers' (0 for the raw image). */
std::vector<std::int32_t>
producerThresholds(const nn::Network &net, int convNodeId,
                   const nn::PruneConfig &prune)
{
    std::vector<std::int32_t> out;
    for (const nn::TraceSegment &seg : nn::inputSegments(net, convNodeId))
        out.push_back(seg.producerConvIndex >= 0
                          ? prune.forConvIndex(static_cast<std::size_t>(
                                seg.producerConvIndex))
                          : 0);
    return out;
}

TEST(TraceCache, PrunedCountMapsKeyedByProducerThresholds)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const int k = 3;
    const int nodeId = net->convNodeIds().at(k);
    const auto inputs = nn::inputSegments(*net, nodeId);
    ASSERT_EQ(inputs.size(), 1u);
    ASSERT_EQ(inputs[0].producerConvIndex, k - 1);

    const auto convs = static_cast<std::size_t>(net->convLayerCount());
    nn::PruneConfig a;
    a.thresholds.assign(convs, 8);
    // Agrees with `a` on conv k-1 only.
    nn::PruneConfig b;
    b.thresholds.assign(convs, 64);
    b.thresholds[k - 1] = 8;
    // Agrees with `a` everywhere but conv k-1.
    nn::PruneConfig c = a;
    c.thresholds[k - 1] = 64;

    timing::TraceCache cache;
    auto lookup = [&](const nn::PruneConfig *p) {
        const auto map = cache.countMap(*net, nodeId, 5, nullptr, p, 16);
        EXPECT_EQ(*map, zfnaf::nonZeroCountMap(
                            nn::synthesizeConvInput(*net, nodeId, 5, p), 16));
        return map;
    };
    const auto first = lookup(&a);
    EXPECT_EQ(lookup(&b), first);
    auto s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 1u);
    EXPECT_EQ(s.countMapHits, 1u);

    const auto other = lookup(&c);
    EXPECT_NE(other, first);
    EXPECT_NE(*other, *first);
    s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 2u);
    EXPECT_EQ(s.countMapHits, 1u);

    // An all-zero config counts like no config but keeps its own key,
    // as a null or empty config keys apart from any threshold tuple.
    nn::PruneConfig zeros;
    zeros.thresholds.assign(convs, 0);
    const nn::PruneConfig empty;
    const auto unpruned = lookup(nullptr);
    const auto zero = lookup(&zeros);
    EXPECT_NE(zero, unpruned);
    EXPECT_EQ(*zero, *unpruned);
    EXPECT_EQ(lookup(&empty), unpruned);
    s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 4u);
    EXPECT_EQ(s.countMapHits, 2u);
}

TEST(TraceCache, ConcatInputKeyedByEachBranchProducer)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016);
    int nodeId = -1;
    std::vector<nn::TraceSegment> inputs;
    for (int id : net->convNodeIds()) {
        inputs = nn::inputSegments(*net, id);
        if (inputs.size() > 1) {
            nodeId = id;
            break;
        }
    }
    ASSERT_GE(nodeId, 0);
    std::set<int> producers;
    for (const nn::TraceSegment &seg : inputs) {
        ASSERT_GE(seg.producerConvIndex, 0);
        producers.insert(seg.producerConvIndex);
    }
    const int convs = net->convLayerCount();
    int outside = 0;
    while (producers.count(outside))
        ++outside;
    ASSERT_LT(outside, convs);

    nn::PruneConfig base;
    base.thresholds.assign(static_cast<std::size_t>(convs), 8);
    nn::PruneConfig elsewhere = base;
    elsewhere.thresholds[outside] = 64;
    nn::PruneConfig branch = base;
    branch.thresholds[inputs.back().producerConvIndex] = 64;

    timing::TraceCache cache;
    const auto first = cache.countMap(*net, nodeId, 6, nullptr, &base, 16);
    EXPECT_EQ(cache.countMap(*net, nodeId, 6, nullptr, &elsewhere, 16),
              first);
    const auto other = cache.countMap(*net, nodeId, 6, nullptr, &branch, 16);
    EXPECT_NE(other, first);
    for (const nn::PruneConfig *p : {&base, &branch})
        EXPECT_EQ(*cache.countMap(*net, nodeId, 6, nullptr, p, 16),
                  zfnaf::nonZeroCountMap(
                      nn::synthesizeConvInput(*net, nodeId, 6, p), 16));
    const auto s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 2u);
    EXPECT_EQ(s.countMapHits, 3u);
}

TEST(TraceCache, KeysNeverAliasAcrossFieldBoundaries)
{
    // Each lookup below differs from an earlier one in a single field,
    // often in a way that reads the same with the field boundaries
    // dropped ({1, 23} and {12, 3}); a key that ran its fields
    // together would count one of them as a hit.
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016);
    int nodeId = -1;
    std::vector<nn::TraceSegment> inputs;
    for (int id : net->convNodeIds()) {
        inputs = nn::inputSegments(*net, id);
        if (inputs.size() > 1) {
            nodeId = id;
            break;
        }
    }
    ASSERT_GE(nodeId, 0);
    const int first = inputs[0].producerConvIndex;
    const int second = inputs[1].producerConvIndex;
    ASSERT_GE(first, 0);
    ASSERT_GE(second, 0);
    ASSERT_NE(first, second);

    const auto convs = static_cast<std::size_t>(net->convLayerCount());
    nn::PruneConfig a;
    a.thresholds.assign(convs, 0);
    a.thresholds[first] = 1;
    a.thresholds[second] = 23;
    nn::PruneConfig b = a;
    b.thresholds[first] = 12;
    b.thresholds[second] = 3;

    timing::TraceCache cache;
    const auto expect = [&](std::uint64_t countMisses,
                            std::uint64_t countHits,
                            std::uint64_t tensorMisses) {
        const auto s = cache.stats();
        EXPECT_EQ(s.countMapMisses, countMisses);
        EXPECT_EQ(s.countMapHits, countHits);
        EXPECT_EQ(s.tensorMisses, tensorMisses);
    };
    const auto mapA = cache.countMap(*net, nodeId, 6, nullptr, &a, 16);
    const auto mapB = cache.countMap(*net, nodeId, 6, nullptr, &b, 16);
    EXPECT_NE(mapA, mapB);
    expect(2, 0, 1);
    // Brick 8 against 16, then a repeat of each: two hits.
    cache.countMap(*net, nodeId, 6, nullptr, &a, 8);
    expect(3, 0, 1);
    EXPECT_EQ(cache.countMap(*net, nodeId, 6, nullptr, &a, 16), mapA);
    EXPECT_EQ(cache.countMap(*net, nodeId, 6, nullptr, &b, 16), mapB);
    expect(3, 2, 1);
    // Adjacent image seeds and adjacent conv nodes are new traces.
    cache.countMap(*net, nodeId, 7, nullptr, &a, 16);
    cache.countMap(*net, nodeId, 5, nullptr, &a, 16);
    expect(5, 2, 3);
    const int next = net->convNodeIds().back();
    ASSERT_NE(next, nodeId);
    cache.countMap(*net, next, 6, nullptr, nullptr, 16);
    expect(6, 2, 4);

    // A scaled build shares the name and node ids, not the shapes.
    const auto small = nn::zoo::build(nn::zoo::NetId::Google, 2016, 8);
    ASSERT_EQ(small->name(), net->name());
    ASSERT_NE(small->node(nodeId).inShape, net->node(nodeId).inShape);
    const auto scaled = cache.countMap(*small, nodeId, 6, nullptr, &a, 16);
    EXPECT_NE(scaled, mapA);
    EXPECT_EQ(*scaled,
              zfnaf::nonZeroCountMap(
                  nn::synthesizeConvInput(*small, nodeId, 6, &a), 16));
    expect(7, 2, 5);
}

TEST(TraceCache, LadderCandidatesMissOncePerProducerThresholdTuple)
{
    // A threshold search's candidates: one Table II ladder rung per
    // conv layer. A layer's maps are bounded by its producers' rungs,
    // not by the number of candidates.
    const auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 1, 8);
    const std::vector<std::int32_t> ladder = pruning::SearchOptions{}.levels;
    const int candidates = 60;
    std::mt19937_64 rng(23);
    std::set<std::pair<int, std::vector<std::int32_t>>> keys;
    timing::TraceCache cache;
    nn::PruneConfig p;
    for (int c = 0; c < candidates; ++c) {
        p.thresholds.clear();
        for (int l = 0; l < net->convLayerCount(); ++l)
            p.thresholds.push_back(ladder[rng() % ladder.size()]);
        for (int id : net->convNodeIds()) {
            cache.countMap(*net, id, 3, nullptr, &p, 16);
            keys.emplace(id, producerThresholds(*net, id, p));
        }
    }
    const auto s = cache.stats();
    const auto lookups =
        static_cast<std::uint64_t>(candidates * net->convLayerCount());
    EXPECT_EQ(s.countMapMisses + s.countMapHits, lookups);
    EXPECT_EQ(s.countMapMisses, keys.size());
    // vgg19 chains its convs: one producer each, none for the first.
    EXPECT_LE(keys.size(),
              1 + (net->convLayerCount() - 1) * ladder.size());
    for (int id : net->convNodeIds())
        EXPECT_EQ(*cache.countMap(*net, id, 3, nullptr, &p, 16),
                  zfnaf::nonZeroCountMap(
                      nn::synthesizeConvInput(*net, id, 3, &p), 16));
}

TEST(TraceCache, ConcurrentLookupsComputeOnce)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const int nodeId = net->convNodeIds().front();
    timing::TraceCache cache;
    sim::ThreadPool pool(4);
    // Count-map lookups race tensor lookups, which draw the values
    // on top of the one cached activity.
    std::vector<std::shared_ptr<const tensor::NeuronTensor>> values(16);
    sim::parallelFor(pool, 16, [&](std::size_t i) {
        if (i % 2 == 0)
            cache.countMap(*net, nodeId, 9, nullptr, nullptr, 16);
        else
            values[i] = cache.convInput(*net, nodeId, 9, nullptr);
    });
    const auto s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 1u);
    EXPECT_EQ(s.countMapHits, 7u);
    EXPECT_EQ(s.tensorMisses, 1u);
    EXPECT_EQ(s.tensorHits, 8u);
    const auto expected = nn::synthesizeConvInput(*net, nodeId, 9);
    for (std::size_t i = 1; i < values.size(); i += 2)
        EXPECT_EQ(*values[i], expected);
}

/**
 * Every conv layer of `run` has the cycles and zero/non-zero activity
 * the closed-form model gives on counts of the reference synthesis.
 */
void
expectConvLayersMatchOracle(const nn::Network &net, timing::Arch arch,
                            const nn::PruneConfig *prune,
                            std::uint64_t seed,
                            const dadiannao::NetworkResult &run)
{
    const NodeConfig cfg;
    for (int id : net.convNodeIds()) {
        const nn::Node &node = net.node(id);
        const timing::CountMap counts = zfnaf::nonZeroCountMap(
            nn::synthesizeConvInput(net, id, seed, prune), cfg.brickSize);
        const auto expected = timing::convLayerTiming(cfg, arch, node, counts);
        const auto layer =
            std::find_if(run.layers.begin(), run.layers.end(),
                         [&](const auto &l) { return l.name == node.name; });
        ASSERT_NE(layer, run.layers.end()) << node.name;
        EXPECT_EQ(layer->cycles, expected.cycles) << node.name;
        EXPECT_EQ(layer->activity.zero, expected.activity.zero) << node.name;
        EXPECT_EQ(layer->activity.nonZero, expected.activity.nonZero)
            << node.name;
    }
}

TEST(TraceCache, SimulateNetworkConvLayersMatchOracle)
{
    // A run without a cache (it builds its own) and a run on a shared
    // cache both time every conv layer on the reference counts; only
    // the encoder architectures see the pruning thresholds.
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const NodeConfig cfg;
    constexpr std::uint64_t kSeed = 11;
    nn::PruneConfig prune;
    prune.thresholds.assign(
        static_cast<std::size_t>(net->convLayerCount()), 16);

    timing::TraceCache shared;
    for (const nn::PruneConfig *p :
         {static_cast<const nn::PruneConfig *>(nullptr),
          static_cast<const nn::PruneConfig *>(&prune)}) {
        for (timing::Arch arch :
             {timing::Arch::Baseline, timing::Arch::Cnv}) {
            const nn::PruneConfig *seen =
                arch == timing::Arch::Baseline ? nullptr : p;
            timing::RunOptions opts;
            opts.imageSeed = kSeed;
            opts.prune = p;
            expectConvLayersMatchOracle(
                *net, arch, seen, kSeed,
                timing::simulateNetwork(cfg, *net, arch, opts));
            opts.cache = &shared;
            expectConvLayersMatchOracle(
                *net, arch, seen, kSeed,
                timing::simulateNetwork(cfg, *net, arch, opts));
        }
    }
}

} // namespace
