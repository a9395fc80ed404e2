/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * ZFNAf encode/decode, non-zero count maps, the closed-form conv
 * timing models, trace synthesis, thread-pool scaling, the
 * conv-trace cache and its pruned count maps, and the pruning
 * search's accuracy check and timing stage. These guard the
 * throughput that makes the paper-scale experiments (full 224x224
 * geometries, batches of images, threshold sweeps) tractable.
 *
 * The *Scalar variants benchmark the scalar reference kernels next
 * to their vectorized counterparts (core/simd.h backends), giving
 * before/after columns for the SIMD hot paths: conv forward, FC
 * forward, non-zero counting and ZFNAf encode.
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "core/arena.h"
#include "mem/memory_model.h"
#include "nn/kernels.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "timing/conv_model.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"
#include "zfnaf/format.h"

using namespace cnv;

namespace {

tensor::NeuronTensor
sparseTensor(int x, int y, int z, double zf)
{
    tensor::NeuronTensor t(x, y, z);
    sim::Rng rng(42);
    for (tensor::Fixed16 &v : t)
        v = rng.bernoulli(zf)
            ? tensor::Fixed16{}
            : tensor::Fixed16::fromRaw(
                  static_cast<std::int16_t>(rng.uniformInt(1, 300)));
    return t;
}

void
BM_ZfnafEncode(benchmark::State &state)
{
    const auto t = sparseTensor(56, 56, 256, 0.44);
    for (auto _ : state)
        benchmark::DoNotOptimize(zfnaf::encode(t));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_ZfnafEncode);

// Scalar reference for the same encode: the "before" column for the
// vectorized hot path above.
void
BM_ZfnafEncodeScalar(benchmark::State &state)
{
    const auto t = sparseTensor(56, 56, 256, 0.44);
    for (auto _ : state)
        benchmark::DoNotOptimize(zfnaf::encodeScalar(t));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_ZfnafEncodeScalar);

void
BM_ZfnafDecode(benchmark::State &state)
{
    const auto enc = zfnaf::encode(sparseTensor(56, 56, 256, 0.44));
    for (auto _ : state)
        benchmark::DoNotOptimize(zfnaf::decode(enc));
}
BENCHMARK(BM_ZfnafDecode);

void
BM_NonZeroCountMap(benchmark::State &state)
{
    const auto t = sparseTensor(112, 112, 128, 0.44);
    for (auto _ : state)
        benchmark::DoNotOptimize(zfnaf::nonZeroCountMap(t));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_NonZeroCountMap);

void
BM_NonZeroCountMapScalar(benchmark::State &state)
{
    const auto t = sparseTensor(112, 112, 128, 0.44);
    for (auto _ : state)
        benchmark::DoNotOptimize(zfnaf::nonZeroCountMapScalar(t));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_NonZeroCountMapScalar);

// Conv forward, zero-skipping kernel vs the scalar reference, on
// three 28x28 3x3 layers: an inner layer at Fig. 1's 44% zeros and
// at 90% zeros (the zero-skip gain), and a depth-3 first layer (the
// shallow-depth case). Items are dense MACs, so items/s compare
// across cases.
struct ConvBenchCase
{
    int depth;
    int filters;
    double zeroFraction;
    const char *label;
};

constexpr ConvBenchCase kConvCases[] = {
    {128, 64, 0.44, "inner z128 f64 zf0.44"},
    {128, 64, 0.9, "inner z128 f64 zf0.9"},
    {3, 32, 0.0, "first z3 f32 dense"},
};

struct ConvBench
{
    tensor::NeuronTensor in;
    nn::ConvParams p;
    tensor::FilterBank w;
    std::vector<tensor::Fixed16> bias;
};

ConvBench
convBench(const benchmark::State &state)
{
    const ConvBenchCase &c =
        kConvCases[static_cast<std::size_t>(state.range(0))];
    ConvBench b;
    b.in = sparseTensor(28, 28, c.depth, c.zeroFraction);
    b.p.filters = c.filters;
    b.p.fx = b.p.fy = 3;
    b.p.stride = 1;
    b.p.pad = 1;
    b.p.relu = true;
    b.w = tensor::FilterBank(c.filters, 3, 3, c.depth);
    sim::Rng rng(9);
    for (std::size_t i = 0; i < b.w.size(); ++i) {
        b.w.data()[i] = tensor::Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(-300, 300)));
    }
    b.bias.resize(static_cast<std::size_t>(c.filters));
    return b;
}

void
reportConv(benchmark::State &state, const ConvBench &b)
{
    state.SetLabel(kConvCases[static_cast<std::size_t>(state.range(0))].label);
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(b.p.macs(b.in.shape())));
}

void
BM_ConvForward(benchmark::State &state)
{
    const ConvBench b = convBench(state);
    const auto packed = nn::kernels::packConvWeights(b.w, b.p.groups);
    core::Arena arena;
    for (auto _ : state) {
        arena.reset();
        benchmark::DoNotOptimize(
            nn::kernels::convForward(b.in, packed, b.bias, b.p, arena));
    }
    reportConv(state, b);
}
BENCHMARK(BM_ConvForward)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void
BM_ConvForwardScalar(benchmark::State &state)
{
    const ConvBench b = convBench(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::kernels::convForwardScalar(b.in, b.w, b.bias, b.p));
    }
    reportConv(state, b);
}
BENCHMARK(BM_ConvForwardScalar)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

void
BM_FcForward(benchmark::State &state)
{
    const auto in = sparseTensor(1, 1, 4096, 0.44);
    nn::FcParams p;
    p.outputs = 1024;
    p.relu = true;
    tensor::FilterBank w(p.outputs, 1, 1, in.shape().z);
    sim::Rng rng(11);
    for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = tensor::Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(-300, 300)));
    }
    const std::vector<tensor::Fixed16> bias(
        static_cast<std::size_t>(p.outputs));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::kernels::fcForward(in, w, bias, p));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_FcForward);

void
BM_FcForwardScalar(benchmark::State &state)
{
    const auto in = sparseTensor(1, 1, 4096, 0.44);
    nn::FcParams p;
    p.outputs = 1024;
    p.relu = true;
    tensor::FilterBank w(p.outputs, 1, 1, in.shape().z);
    sim::Rng rng(11);
    for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = tensor::Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(-300, 300)));
    }
    const std::vector<tensor::Fixed16> bias(
        static_cast<std::size_t>(p.outputs));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::kernels::fcForwardScalar(in, w, bias, p));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_FcForwardScalar);

// The two synthesis stages on one shape: items/s gives each
// stage's ns per element (activity alone, values alone, both).
constexpr tensor::Shape3 kTraceShape{56, 56, 256};

void
BM_TraceSynthesis(benchmark::State &state)
{
    nn::SparsityModel model;
    model.zeroFraction = 0.44;
    sim::Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::synthesizeActivations(kTraceShape, model, rng));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kTraceShape.volume()));
}
BENCHMARK(BM_TraceSynthesis);

void
BM_TraceActivity(benchmark::State &state)
{
    nn::SparsityModel model;
    model.zeroFraction = 0.44;
    sim::Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::synthesizeActivity(kTraceShape, model, rng));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kTraceShape.volume()));
}
BENCHMARK(BM_TraceActivity);

void
BM_TraceActivityInput(benchmark::State &state)
{
    // Stage 1 on a network's first conv input: the raw image's model
    // (as synthesizeConvActivity sets it) on a 224x224x3 plane, where
    // the field's per-column work weighs as much as the draws.
    constexpr tensor::Shape3 shape{224, 224, 3};
    nn::SparsityModel model;
    model.zeroFraction = 0.01;
    model.channelDispersion = 0.05;
    model.spatialDispersion = 0.05;
    sim::Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(nn::synthesizeActivity(shape, model, rng));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(shape.volume()));
}
BENCHMARK(BM_TraceActivityInput);

void
BM_TraceValues(benchmark::State &state)
{
    // Stage 2 alone, on the activity BM_TraceActivity draws.
    nn::SparsityModel model;
    model.zeroFraction = 0.44;
    sim::Rng rng(7);
    const nn::Activity activity =
        nn::synthesizeActivity(kTraceShape, model, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(nn::synthesizeValues(activity));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kTraceShape.volume()));
}
BENCHMARK(BM_TraceValues);

/** The 56x56x256, 3x3, 256-filter layer every conv timing bench runs. */
struct ConvTimingLayer
{
    tensor::Shape3 shape;
    timing::CountMap counts;
    nn::ConvParams params;
};

ConvTimingLayer
convTimingLayer()
{
    const auto t = sparseTensor(56, 56, 256, 0.44);
    ConvTimingLayer layer{t.shape(), zfnaf::nonZeroCountMap(t), {}};
    layer.params.filters = 256;
    layer.params.fx = layer.params.fy = 3;
    layer.params.stride = 1;
    layer.params.pad = 1;
    return layer;
}

void
BM_ConvTimingBaseline(benchmark::State &state)
{
    const ConvTimingLayer l = convTimingLayer();
    const dadiannao::NodeConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(timing::convBaseline(
            cfg, l.params, l.shape, l.counts, false));
    }
}
BENCHMARK(BM_ConvTimingBaseline);

void
BM_ConvTimingCnv(benchmark::State &state)
{
    const ConvTimingLayer l = convTimingLayer();
    const dadiannao::NodeConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            timing::convCnv(cfg, l.params, l.shape, l.counts));
    }
}
BENCHMARK(BM_ConvTimingCnv);

// Cnvlutin2 with 35% of the weight bricks pruned: the lane profile
// differs per filter pass.
void
BM_ConvTimingCnv2(benchmark::State &state)
{
    const ConvTimingLayer l = convTimingLayer();
    const dadiannao::NodeConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(timing::convCnv2(
            cfg, l.params, l.shape, l.counts, /*convIndex=*/1, 0.35));
    }
}
BENCHMARK(BM_ConvTimingCnv2);

// CNV against the banked memory model (`--mem banked`): every window
// group's fetch list goes through the GB and the NM bank arbitration.
void
BM_ConvTimingCnvBanked(benchmark::State &state)
{
    const ConvTimingLayer l = convTimingLayer();
    const dadiannao::NodeConfig cfg;
    mem::Geometry geo;
    geo.banks = cfg.nmBanks;
    geo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
    mem::MemoryModel model(geo);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            timing::convCnv(cfg, l.params, l.shape, l.counts, &model));
        model.drainLayer();
    }
}
BENCHMARK(BM_ConvTimingCnvBanked);

// A shallow, wide layer (VGG-19's conv1_2: 224x224x64, 3x3, 64
// filters): four bricks per cell, so the per-cell gather and fold
// overhead dominates rather than the bricks themselves.
void
BM_ConvTimingCnvShallow(benchmark::State &state)
{
    const auto t = sparseTensor(224, 224, 64, 0.44);
    const timing::CountMap counts = zfnaf::nonZeroCountMap(t);
    nn::ConvParams params;
    params.filters = 64;
    params.fx = params.fy = 3;
    params.stride = 1;
    params.pad = 1;
    const dadiannao::NodeConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            timing::convCnv(cfg, params, t.shape(), counts));
    }
}
BENCHMARK(BM_ConvTimingCnvShallow)->Unit(benchmark::kMillisecond);

// A 1x1 layer on a deep input (GoogLeNet's inception-5 shape, 52
// bricks per cell, two filter passes) against the banked memory
// model: each cell is one long run of bricks, so this prices the
// replay's whole-run residency check rather than the gather.
void
BM_ConvTimingCnvBanked1x1(benchmark::State &state)
{
    const auto t = sparseTensor(7, 7, 832, 0.44);
    const timing::CountMap counts = zfnaf::nonZeroCountMap(t);
    nn::ConvParams params;
    params.filters = 384;
    params.fx = params.fy = 1;
    params.stride = 1;
    const dadiannao::NodeConfig cfg;
    mem::Geometry geo;
    geo.banks = cfg.nmBanks;
    geo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
    mem::MemoryModel model(geo);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            timing::convCnv(cfg, params, t.shape(), counts, &model));
        model.drainLayer();
    }
}
BENCHMARK(BM_ConvTimingCnvBanked1x1);

// CNV and Cnvlutin2 at 35% in one banked walk: the window groups are
// gathered and replayed once for both, so this costs less than
// BM_ConvTimingCnvBanked plus a banked Cnvlutin2 run.
void
BM_ConvTimingSharedWalk(benchmark::State &state)
{
    const ConvTimingLayer l = convTimingLayer();
    const dadiannao::NodeConfig cfg;
    mem::Geometry geo;
    geo.banks = cfg.nmBanks;
    geo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
    mem::MemoryModel cnvModel(geo);
    mem::MemoryModel cnv2Model(geo);
    const timing::EncodedSink sinks[] = {{0.0, &cnvModel},
                                         {0.35, &cnv2Model}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(timing::convEncoded(
            cfg, l.params, l.shape, l.counts, /*convIndex=*/1, sinks));
        cnvModel.drainLayer();
        cnv2Model.drainLayer();
    }
}
BENCHMARK(BM_ConvTimingSharedWalk);

// Prune-search's timing stage on its own: the ideal dadiannao + cnv
// walk of full-geometry VGG-19 over count maps warmed outside the
// loop. Arg 0 walks the whole net, as timing::simulateNetworks does;
// Arg k walks conv layer k alone (both archs, cnv's conv1 on the
// baseline datapath), which shows the layers a change moves.
void
BM_ConvTimingVgg19Warm(benchmark::State &state)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 1);
    const dadiannao::NodeConfig cfg;
    timing::TraceCache cache;
    timing::RunOptions opts;
    opts.imageSeed = 1;
    opts.cache = &cache;
    const timing::Arch archs[] = {timing::Arch::Baseline, timing::Arch::Cnv};
    timing::simulateNetworks(cfg, *net, archs, opts);
    const int layer = static_cast<int>(state.range(0));
    if (layer == 0) {
        for (auto _ : state)
            benchmark::DoNotOptimize(
                timing::simulateNetworks(cfg, *net, archs, opts));
        return;
    }
    const int id = net->convNodeIds()[static_cast<std::size_t>(layer - 1)];
    const nn::Node &node = net->node(id);
    const auto counts = cache.countMap(*net, id, opts.imageSeed, nullptr,
                                       nullptr, cfg.brickSize);
    const bool conv1 = node.convIndex == 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(timing::convBaseline(
            cfg, node.conv, node.inShape, *counts, conv1));
        benchmark::DoNotOptimize(
            conv1 ? timing::convBaseline(cfg, node.conv, node.inShape,
                                         *counts, conv1)
                  : timing::convCnv(cfg, node.conv, node.inShape, *counts));
    }
}
BENCHMARK(BM_ConvTimingVgg19Warm)->DenseRange(0, 16)
    ->Unit(benchmark::kMicrosecond);

// One Table II candidate's accuracy check (the scale-8 VGG-19 the
// threshold search uses, 6 images) on a warm network: weights
// materialised and every image's unpruned reference seen once.
void
BM_RelativeAccuracy(benchmark::State &state)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 1, 8);
    net->calibrate();
    nn::PruneConfig cand;
    cand.thresholds.assign(static_cast<std::size_t>(net->convLayerCount()),
                           8);
    constexpr int kImages = 6;
    pruning::relativeAccuracy(*net, cand, kImages, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pruning::relativeAccuracy(*net, cand, kImages, 1));
    }
}
BENCHMARK(BM_RelativeAccuracy)->Unit(benchmark::kMillisecond);

// Scaling of sim::parallelFor over the count-map kernel with a
// local pool of Arg() workers. On multi-core CI hardware the Arg(4)
// case should approach 4x the Arg(1) items/second; on a single-core
// box the curve is flat, which is itself worth seeing in the output.
void
BM_ParallelForScaling(benchmark::State &state)
{
    const auto t = sparseTensor(56, 56, 256, 0.44);
    sim::ThreadPool pool(static_cast<int>(state.range(0)));
    constexpr std::size_t kTasks = 16;
    for (auto _ : state) {
        sim::parallelFor(pool, kTasks, [&](std::size_t) {
            benchmark::DoNotOptimize(zfnaf::nonZeroCountMap(t));
        });
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kTasks));
}
BENCHMARK(BM_ParallelForScaling)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Cold path of the conv-trace cache: every iteration misses (fresh
// seed), so this prices one synthesize + count-map computation plus
// the cache bookkeeping around it.
void
BM_TraceCacheMiss(benchmark::State &state)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 1);
    const int nodeId = net->convNodeIds().front();
    timing::TraceCache cache;
    const dadiannao::NodeConfig cfg;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.countMap(
            *net, nodeId, seed++, nullptr, nullptr, cfg.brickSize));
    }
}
BENCHMARK(BM_TraceCacheMiss)->Unit(benchmark::kMillisecond);

// Hot path: the same key every iteration, so this prices a lookup —
// the cost every simulateNetwork call after the first pays per conv
// layer when archs share a cache.
void
BM_TraceCacheHit(benchmark::State &state)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 1);
    const int nodeId = net->convNodeIds().front();
    timing::TraceCache cache;
    const dadiannao::NodeConfig cfg;
    cache.countMap(*net, nodeId, 1, nullptr, nullptr, cfg.brickSize);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.countMap(
            *net, nodeId, 1, nullptr, nullptr, cfg.brickSize));
    }
}
BENCHMARK(BM_TraceCacheHit);

// A design-sweep lookup: a pruned count map of a GoogLeNet concat
// input, keyed by the threshold of each of its producer branches.
// Every lookup hits.
void
BM_CountMapHit(benchmark::State &state)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 1);
    int nodeId = net->convNodeIds().front();
    for (int id : net->convNodeIds())
        if (nn::inputSegments(*net, id).size() > 1)
            nodeId = id;
    nn::PruneConfig prune;
    prune.thresholds.assign(
        static_cast<std::size_t>(net->convLayerCount()), 8);
    timing::TraceCache cache;
    const dadiannao::NodeConfig cfg;
    cache.countMap(*net, nodeId, 1, nullptr, &prune, cfg.brickSize);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.countMap(
            *net, nodeId, 1, nullptr, &prune, cfg.brickSize));
    }
}
BENCHMARK(BM_CountMapHit);

// A threshold-search lookup that misses: a pruned count map of the
// same concat input on a warm trace, at a threshold the cache has not
// seen. It prices nn::prunedMask plus the count, not synthesis;
// items/s gives ns per input element.
void
BM_PrunedCountMapMiss(benchmark::State &state)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 1);
    int nodeId = net->convNodeIds().front();
    for (int id : net->convNodeIds())
        if (nn::inputSegments(*net, id).size() > 1)
            nodeId = id;
    const dadiannao::NodeConfig cfg;
    nn::PruneConfig prune;
    std::optional<timing::TraceCache> cache;
    int fresh = 0;
    for (auto _ : state) {
        // Every 256 thresholds, an untimed fresh cache with a warm
        // trace, so the maps held stay bounded.
        if (fresh % 256 == 0) {
            state.PauseTiming();
            cache.emplace();
            cache->countMap(*net, nodeId, 1, nullptr, nullptr,
                            cfg.brickSize);
            state.ResumeTiming();
        }
        prune.thresholds.assign(
            static_cast<std::size_t>(net->convLayerCount()),
            2 + 64 * (fresh++ % 256));
        benchmark::DoNotOptimize(cache->countMap(
            *net, nodeId, 1, nullptr, &prune, cfg.brickSize));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(net->node(nodeId).inShape.volume()));
}
BENCHMARK(BM_PrunedCountMapMiss);

void
BM_GoogleNetTimingEndToEnd(benchmark::State &state)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 1);
    const dadiannao::NodeConfig cfg;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        timing::RunOptions opts;
        opts.imageSeed = seed++;
        benchmark::DoNotOptimize(
            timing::simulateNetwork(cfg, *net, timing::Arch::Cnv, opts));
    }
}
BENCHMARK(BM_GoogleNetTimingEndToEnd)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
