/** @file Scalar-vs-SIMD equivalence tests for the kernel layer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/arena.h"
#include "core/simd.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "sim/rng.h"

namespace {

using namespace cnv;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;

Fixed16
randomValue(sim::Rng &rng, double zeroFrac)
{
    if (rng.bernoulli(zeroFrac))
        return Fixed16{};
    return Fixed16::fromRaw(static_cast<std::int16_t>(rng.uniformInt(
        std::int64_t{std::numeric_limits<std::int16_t>::min()},
        std::int64_t{std::numeric_limits<std::int16_t>::max()})));
}

NeuronTensor
randomTensor(int x, int y, int z, std::uint64_t seed,
             double zeroFrac = 0.4)
{
    NeuronTensor t(x, y, z);
    sim::Rng rng(seed);
    for (Fixed16 &v : t)
        v = randomValue(rng, zeroFrac);
    return t;
}

FilterBank
randomFilters(int n, int fx, int fy, int z, std::uint64_t seed)
{
    FilterBank w(n, fx, fy, z);
    sim::Rng rng(seed);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = randomValue(rng, 0.1);
    return w;
}

std::vector<Fixed16>
randomBias(int n, std::uint64_t seed)
{
    std::vector<Fixed16> bias(static_cast<std::size_t>(n));
    sim::Rng rng(seed);
    for (Fixed16 &b : bias)
        b = randomValue(rng, 0.0);
    return bias;
}

void
expectIdentical(const NeuronTensor &a, const NeuronTensor &b,
                const char *what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.data()[i].raw(), b.data()[i].raw())
            << what << " diverges at flat index " << i;
    }
}

struct ConvCase
{
    int x, y, z;
    int filters, fx, fy;
    int stride, pad, groups;
    bool relu;
};

TEST(KernelEquivalence, ConvForwardBitIdenticalAcrossShapes)
{
    // Depths straddle the vector width with odd tails; pads, strides
    // and groups exercise the padded-staging path and group offsets.
    const ConvCase cases[] = {
        {7, 7, 3, 5, 3, 3, 1, 1, 1, true},     // tail-only depth
        {9, 9, 17, 8, 3, 3, 2, 1, 1, false},   // one vector + tail
        {5, 5, 33, 6, 5, 5, 1, 2, 1, true},    // two vectors + 1
        {8, 8, 64, 12, 3, 3, 1, 0, 4, true},   // grouped, no pad
        {6, 6, 48, 10, 2, 2, 2, 0, 2, false},  // grouped, stride 2
        {3, 3, 1, 3, 1, 1, 1, 0, 1, false},    // degenerate 1x1x1
        {11, 7, 19, 7, 3, 2, 3, 2, 1, true},   // asymmetric window
    };
    std::uint64_t seed = 101;
    for (const ConvCase &c : cases) {
        nn::ConvParams p;
        p.filters = c.filters;
        p.fx = c.fx;
        p.fy = c.fy;
        p.stride = c.stride;
        p.pad = c.pad;
        p.groups = c.groups;
        p.relu = c.relu;
        const NeuronTensor in = randomTensor(c.x, c.y, c.z, seed);
        const FilterBank w = randomFilters(
            c.filters, c.fx, c.fy, c.z / c.groups, seed + 1);
        const std::vector<Fixed16> bias =
            randomBias(c.filters, seed + 2);
        seed += 3;

        core::Arena arena;
        const NeuronTensor vec =
            nn::kernels::convForward(in, w, bias, p, arena);
        const NeuronTensor ref =
            nn::kernels::convForwardScalar(in, w, bias, p);
        expectIdentical(vec, ref, "convForward");
    }
}

TEST(KernelEquivalence, ConvExtremeValuesDoNotDiverge)
{
    // All-minimum inputs and weights maximise every product (the
    // madd wrap trap); the vector path must still match exactly.
    nn::ConvParams p;
    p.filters = 2;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 1;
    p.relu = false;
    NeuronTensor in(5, 5, 21);
    for (Fixed16 &v : in)
        v = Fixed16::fromRaw(std::numeric_limits<std::int16_t>::min());
    FilterBank w(2, 3, 3, 21);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] =
            Fixed16::fromRaw(std::numeric_limits<std::int16_t>::min());
    const std::vector<Fixed16> bias(2);

    core::Arena arena;
    expectIdentical(nn::kernels::convForward(in, w, bias, p, arena),
                    nn::kernels::convForwardScalar(in, w, bias, p),
                    "extreme convForward");
}

TEST(KernelEquivalence, ArenaReuseAcrossLayersIsSafe)
{
    // The same arena staged across differently-sized layers (as
    // Network::forward does) must not corrupt results.
    core::Arena arena;
    std::uint64_t seed = 900;
    for (int round = 0; round < 3; ++round) {
        for (int z : {3, 40, 9}) {
            nn::ConvParams p;
            p.filters = 4;
            p.fx = p.fy = 3;
            p.stride = 1;
            p.pad = 1;
            p.relu = true;
            const NeuronTensor in = randomTensor(6, 6, z, seed);
            const FilterBank w = randomFilters(4, 3, 3, z, seed + 1);
            const std::vector<Fixed16> bias = randomBias(4, seed + 2);
            seed += 3;
            arena.reset();
            expectIdentical(
                nn::kernels::convForward(in, w, bias, p, arena),
                nn::kernels::convForwardScalar(in, w, bias, p),
                "arena-reuse convForward");
        }
    }
}

nn::ConvParams
paramsOf(const ConvCase &c)
{
    nn::ConvParams p;
    p.filters = c.filters;
    p.fx = c.fx;
    p.fy = c.fy;
    p.stride = c.stride;
    p.pad = c.pad;
    p.groups = c.groups;
    p.relu = c.relu;
    return p;
}

/** convForward vs convForwardScalar, raw for raw, on one case. */
void
expectConvMatches(const ConvCase &c, double zeroFrac, std::uint64_t seed)
{
    const nn::ConvParams p = paramsOf(c);
    const NeuronTensor in = randomTensor(c.x, c.y, c.z, seed, zeroFrac);
    const FilterBank w =
        randomFilters(c.filters, c.fx, c.fy, c.z / c.groups, seed + 1);
    const std::vector<Fixed16> bias = randomBias(c.filters, seed + 2);
    core::Arena arena;
    SCOPED_TRACE(::testing::Message()
                 << c.x << "x" << c.y << "x" << c.z << " -> " << c.filters
                 << " " << c.fx << "x" << c.fy << " s" << c.stride << " p"
                 << c.pad << " g" << c.groups << " zf " << zeroFrac);
    expectIdentical(nn::kernels::convForward(in, w, bias, p, arena),
                    nn::kernels::convForwardScalar(in, w, bias, p),
                    "convForward");
}

TEST(KernelEquivalence, ConvForwardMatchesScalarOnShallowAndSparseInputs)
{
    // The zero-skipping walk vectorises over filters, so depth and
    // sparsity are what it must get right: depths 1-3 (nin's conv1
    // geometry among them, with 12 filters), every zero fraction
    // from dense to all-zero, and filter counts around the 16-lane
    // blocks and the 4-block register tile.
    const ConvCase fixed[] = {
        {227, 227, 3, 12, 11, 11, 4, 0, 1, true}, // nin conv1
        {9, 9, 1, 5, 3, 3, 1, 1, 1, false},
        {8, 7, 2, 33, 2, 3, 1, 0, 1, true},
        {10, 10, 3, 64, 3, 3, 2, 1, 1, false},
        {6, 6, 3, 100, 1, 1, 1, 0, 1, true},
    };
    std::uint64_t seed = 3000;
    for (double zf : {0.0, 0.5, 0.95, 1.0}) {
        for (const ConvCase &c : fixed) {
            expectConvMatches(c, zf, seed);
            seed += 3;
        }
    }
}

TEST(KernelEquivalence, ConvForwardMatchesScalarOnSeededShapes)
{
    // Seeded random geometries: groups, strides, pads, and window
    // rows that end in the far-side padding (Caffe's overhang at the
    // last output) whenever (x + 2 pad - fx) is a multiple of the
    // stride.
    sim::Rng rng(4242);
    auto pick = [&](int lo, int hi) {
        return static_cast<int>(
            rng.uniformInt(std::int64_t{lo}, std::int64_t{hi}));
    };
    std::uint64_t seed = 5000;
    for (int trial = 0; trial < 40; ++trial) {
        ConvCase c{};
        c.groups = pick(1, 3);
        c.z = c.groups * (trial % 2 == 0 ? pick(1, 3) : pick(4, 24));
        c.filters = c.groups * pick(1, 40);
        c.fx = pick(1, 5);
        c.fy = pick(1, 5);
        c.stride = pick(1, 3);
        c.pad = pick(0, std::min(c.fx, c.fy) - 1);
        c.x = std::max(1, c.fx - 2 * c.pad) + pick(0, 8);
        c.y = std::max(1, c.fy - 2 * c.pad) + pick(0, 8);
        c.relu = trial % 3 != 0;
        const double zeroFracs[] = {0.0, 0.5, 0.95, 1.0};
        expectConvMatches(c, zeroFracs[trial % 4], seed);
        seed += 3;
    }
}

TEST(KernelEquivalence, ConvForwardExtremesFlushEveryProduct)
{
    // INT16_MIN/INT16_MAX neurons and weights on the deepest zoo
    // window (3x3x512): max|n| * max|w| = 2^30, so the int32 lanes
    // must move into int64 after every product. Mixed signs and
    // magnitudes make any wrap visible in the saturated outputs.
    constexpr std::int16_t kMin = std::numeric_limits<std::int16_t>::min();
    constexpr std::int16_t kMax = std::numeric_limits<std::int16_t>::max();
    sim::Rng rng(77);
    auto extreme = [&] {
        const std::int16_t picks[] = {kMin, kMax, kMin, 0, 1, -300};
        return Fixed16::fromRaw(picks[rng.uniformInt(0, 5)]);
    };
    nn::ConvParams p;
    p.filters = 20;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 1;
    p.relu = false;
    NeuronTensor in(3, 3, 512);
    for (Fixed16 &v : in)
        v = extreme();
    FilterBank w(p.filters, 3, 3, 512);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = extreme();
    const std::vector<Fixed16> bias = randomBias(p.filters, 78);

    core::Arena arena;
    expectIdentical(nn::kernels::convForward(in, w, bias, p, arena),
                    nn::kernels::convForwardScalar(in, w, bias, p),
                    "extreme 3x3x512 convForward");
}

TEST(KernelEquivalence, FcForwardBitIdenticalOnOddVolumes)
{
    // Volumes with tails shorter than any vector width.
    for (int volume : {1, 7, 16, 17, 63, 130}) {
        nn::FcParams p;
        p.outputs = 9;
        p.relu = (volume % 2) == 0;
        const NeuronTensor in =
            randomTensor(1, 1, volume, 500 + volume);
        FilterBank w(p.outputs, 1, 1, volume);
        sim::Rng rng(600 + volume);
        for (std::size_t i = 0; i < w.size(); ++i)
            w.data()[i] = randomValue(rng, 0.2);
        const std::vector<Fixed16> bias =
            randomBias(p.outputs, 700 + volume);

        expectIdentical(nn::kernels::fcForward(in, w, bias, p),
                        nn::kernels::fcForwardScalar(in, w, bias, p),
                        "fcForward");
    }
}

TEST(KernelEquivalence, DotRawMatchesScalarSum)
{
    for (int n : {0, 1, 5, 31, 64, 100}) {
        const NeuronTensor a = randomTensor(1, 1, n > 0 ? n : 1, 800);
        const NeuronTensor b = randomTensor(1, 1, n > 0 ? n : 1, 801);
        tensor::Accum expect = 0;
        for (int i = 0; i < n; ++i)
            expect += mulRaw(a.data()[i], b.data()[i]);
        EXPECT_EQ(nn::kernels::dotRaw(a.data(), b.data(),
                                      static_cast<std::size_t>(n)),
                  expect)
            << "n=" << n;
    }
}

TEST(KernelEquivalence, PublicConv2dUsesTheSameKernel)
{
    // The ops-layer entry points (with and without a caller arena)
    // must agree with the scalar reference too.
    nn::ConvParams p;
    p.filters = 6;
    p.fx = p.fy = 3;
    p.stride = 1;
    p.pad = 1;
    p.relu = true;
    const NeuronTensor in = randomTensor(8, 8, 13, 1000);
    const FilterBank w = randomFilters(6, 3, 3, 13, 1001);
    const std::vector<Fixed16> bias = randomBias(6, 1002);

    const NeuronTensor ref = nn::kernels::convForwardScalar(in, w, bias, p);
    expectIdentical(nn::conv2d(in, w, bias, p), ref, "conv2d");
    core::Arena arena;
    expectIdentical(nn::conv2d(in, w, bias, p, arena), ref,
                    "conv2d(arena)");
}

} // namespace
