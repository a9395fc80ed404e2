/** @file Tests for the deterministic random number generator. */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>

#include "sim/rng.h"

namespace {

using cnv::sim::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(std::int64_t{-5}, std::int64_t{5});
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(17);
    std::array<int, 8> hits{};
    for (int i = 0; i < 8000; ++i)
        ++hits[rng.uniformInt(std::uint64_t{8})];
    for (int h : hits)
        EXPECT_GT(h, 700); // each bucket near 1000
}

TEST(Rng, NormalMomentsAreSane)
{
    Rng rng(19);
    const int n = 200000;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumSq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sumSq / n, 1.0, 0.02);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.44);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.44, 0.01);
}

TEST(Rng, Mix64KnownAnswer)
{
    // The SplitMix64 reference output for seed 0.
    static_assert(cnv::core::mix64(0) == 0xe220a8397b1dcdafULL);
    EXPECT_EQ(cnv::core::mix64(0), 0xe220a8397b1dcdafULL);
}

/** FNV-1a over the bit patterns of `n` values drawn by `draw`. */
template <typename Draw>
std::uint64_t
digestOf(int n, Draw draw)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(draw());
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xffU;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

TEST(Rng, FirstOutputsOfSeed2016ArePinned)
{
    // Trace synthesis builds every activity field from these streams,
    // so any change to seeding, next() or normal() moves every trace.
    Rng normals(2016);
    EXPECT_EQ(normals.normal(), 0x1.752603e067ebp-2);
    EXPECT_EQ(normals.normal(), 0x1.0b993a87006f1p+1);
    Rng raw(2016);
    EXPECT_EQ(raw.next(), 0x1aef858351f34a87u);
    EXPECT_EQ(raw.next(), 0x38f8063cf0ddde3du);
    Rng a(2016), b(2016);
    EXPECT_EQ(digestOf(64, [&a] { return a.normal(); }), 0x0b7be2e90fc48d0eu);
    EXPECT_EQ(digestOf(64, [&b] { return b.next(); }), 0xd30c08731fbc62e0u);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic)
{
    Rng parent(31);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    Rng c1again = parent.fork(1);
    EXPECT_EQ(c1.next(), c1again.next());
    EXPECT_NE(c1.next(), c2.next());
}

} // namespace
