/** @file Tests for the deterministic random number generator. */

#include <gtest/gtest.h>

#include <array>
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

TEST(Rng, DiscardNormalAdvancesExactlyLikeNormal)
{
    // Random interleavings of normal(), discardNormal() and next():
    // every value the test stream does return equals the all-normal()
    // reference's value at the same position, including a discarded
    // pair's cached half returned by a later normal().
    Rng schedule(41);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t seed = schedule.next();
        Rng reference(seed);
        Rng test(seed);
        const int ops = 1 + static_cast<int>(schedule.uniformInt(64));
        for (int op = 0; op < ops; ++op) {
            switch (schedule.uniformInt(3)) {
              case 0:
                EXPECT_EQ(reference.normal(), test.normal())
                    << "trial " << trial << " op " << op;
                break;
              case 1:
                reference.normal();
                test.discardNormal();
                break;
              default:
                EXPECT_EQ(reference.next(), test.next())
                    << "trial " << trial << " op " << op;
                break;
            }
        }
        for (int k = 0; k < 4; ++k) {
            EXPECT_EQ(reference.normal(), test.normal()) << "trial " << trial;
            EXPECT_EQ(reference.next(), test.next()) << "trial " << trial;
        }
    }
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
