/** @file Tests for the portable SIMD layer (active backend). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/simd.h"
#include "sim/rng.h"

namespace {

namespace simd = cnv::core::simd;

/** Scalar model of the lane predicate: non-zero and |raw| >= t. */
bool
keptScalar(std::int16_t raw, std::int32_t threshold)
{
    const std::int32_t wide = raw;
    const std::int32_t mag = wide < 0 ? -wide : wide;
    return raw != 0 && mag >= threshold;
}

std::vector<std::int16_t>
randomLanes(int n, std::uint64_t seed)
{
    cnv::sim::Rng rng(seed);
    std::vector<std::int16_t> v(static_cast<std::size_t>(n));
    for (auto &x : v) {
        if (rng.bernoulli(0.4)) {
            x = 0;
        } else {
            x = static_cast<std::int16_t>(rng.uniformInt(
                std::int64_t{std::numeric_limits<std::int16_t>::min()},
                std::int64_t{std::numeric_limits<std::int16_t>::max()}));
        }
    }
    return v;
}

TEST(Simd, BackendReportsCoherently)
{
    EXPECT_GE(simd::kLanes, 1);
    if (!simd::kEnabled)
        EXPECT_STREQ(simd::instructionSet(), "scalar");
    else
        EXPECT_STRNE(simd::instructionSet(), "scalar");
}

TEST(Simd, DotAccumMatchesScalarOnRandomLanes)
{
    const auto a = randomLanes(simd::kLanes, 0xa);
    const auto b = randomLanes(simd::kLanes, 0xb);
    simd::DotAccum acc;
    acc.mulAcc(simd::loadFull(a.data()), simd::loadFull(b.data()));
    std::int64_t expect = 0;
    for (int i = 0; i < simd::kLanes; ++i) {
        expect += static_cast<std::int64_t>(a[static_cast<std::size_t>(i)]) *
                  b[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(acc.total(), expect);
}

TEST(Simd, DotAccumExactAtInt16Extremes)
{
    // Every lane -32768 * -32768: the pairwise-wrap trap that rules
    // out madd-style instructions. The exact sum is kLanes * 2^30.
    std::vector<std::int16_t> lo(
        static_cast<std::size_t>(simd::kLanes),
        std::numeric_limits<std::int16_t>::min());
    simd::DotAccum acc;
    acc.mulAcc(simd::loadFull(lo.data()), simd::loadFull(lo.data()));
    EXPECT_EQ(acc.total(),
              static_cast<std::int64_t>(simd::kLanes) * (1LL << 30));

    // Accumulation keeps adding exactly.
    acc.mulAcc(simd::loadFull(lo.data()), simd::loadFull(lo.data()));
    EXPECT_EQ(acc.total(),
              2 * static_cast<std::int64_t>(simd::kLanes) * (1LL << 30));
}

TEST(Simd, PartialLoadZeroFillsTail)
{
    const auto a = randomLanes(simd::kLanes, 0xc);
    for (int n = 0; n <= simd::kLanes; ++n) {
        const simd::VecI16 v = n == simd::kLanes
            ? simd::loadFull(a.data())
            : simd::loadPartial(a.data(), n);
        // A zero-filled tail contributes no products and no counts.
        simd::DotAccum acc;
        acc.mulAcc(v, v);
        std::int64_t expect = 0;
        int expectCount = 0;
        for (int i = 0; i < n; ++i) {
            const std::int64_t x = a[static_cast<std::size_t>(i)];
            expect += x * x;
            if (keptScalar(a[static_cast<std::size_t>(i)], 1))
                ++expectCount;
        }
        EXPECT_EQ(acc.total(), expect) << "n=" << n;
        EXPECT_EQ(simd::geCount(v, 1), expectCount) << "n=" << n;
    }
}

TEST(Simd, ClampThresholdMatchesPredicateDomain)
{
    EXPECT_EQ(simd::clampThreshold(-5), 1);
    EXPECT_EQ(simd::clampThreshold(0), 1);
    EXPECT_EQ(simd::clampThreshold(1), 1);
    EXPECT_EQ(simd::clampThreshold(1000), 1000);
    EXPECT_EQ(simd::clampThreshold(0xFFFF), 0xFFFF);
    EXPECT_EQ(simd::clampThreshold(0x7FFFFFFF), 0xFFFF);
}

TEST(Simd, GeCountAndMaskMatchScalarPredicate)
{
    // Edge lanes: zero, INT16_MIN (|x| = 32768), extremes around
    // common thresholds.
    std::vector<std::int16_t> v(static_cast<std::size_t>(simd::kLanes));
    v[0] = 0;
    v[1] = std::numeric_limits<std::int16_t>::min();
    v[2] = std::numeric_limits<std::int16_t>::max();
    v[3] = -1;
    for (int i = 4; i < simd::kLanes; ++i) {
        v[static_cast<std::size_t>(i)] =
            static_cast<std::int16_t>((i % 2 ? -1 : 1) * (i * 37));
    }
    for (std::int32_t threshold :
         {0, 1, 2, 100, 32767, 32768, 40000}) {
        const std::uint16_t t = simd::clampThreshold(threshold);
        const simd::VecI16 vec = simd::loadFull(v.data());
        int expectCount = 0;
        std::uint32_t expectMask = 0;
        for (int i = 0; i < simd::kLanes; ++i) {
            if (keptScalar(v[static_cast<std::size_t>(i)], threshold)) {
                ++expectCount;
                expectMask |= 1u << i;
            }
        }
        EXPECT_EQ(simd::geCount(vec, t), expectCount)
            << "threshold " << threshold;
        EXPECT_EQ(simd::geMask(vec, t), expectMask)
            << "threshold " << threshold;
    }
}

TEST(Simd, GeMaskRandomizedAgainstScalar)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        const auto v = randomLanes(simd::kLanes, seed);
        const simd::VecI16 vec = simd::loadFull(v.data());
        for (std::int32_t threshold : {0, 1, 64, 5000, 32768}) {
            const std::uint16_t t = simd::clampThreshold(threshold);
            std::uint32_t expectMask = 0;
            for (int i = 0; i < simd::kLanes; ++i) {
                if (keptScalar(v[static_cast<std::size_t>(i)], threshold))
                    expectMask |= 1u << i;
            }
            EXPECT_EQ(simd::geMask(vec, t), expectMask)
                << "seed " << seed << " threshold " << threshold;
        }
    }
}

TEST(Simd, MacBlockFlushesLanesInWeightOrder)
{
    // Each lane must land in out[i] for weight i (the AVX2 unpacks
    // interleave lanes), exact at the int16 extremes when flushed
    // after every product, and exact over several products between
    // flushes while the lane sums fit in int32.
    const auto w = randomLanes(3 * simd::kMacLanes, 0xc);
    const std::int16_t n[] = {std::numeric_limits<std::int16_t>::min(),
                              std::numeric_limits<std::int16_t>::max(),
                              -1};
    simd::MacBlock mac;
    std::int64_t out[simd::kMacLanes] = {};
    std::int64_t expect[simd::kMacLanes] = {};
    for (int k = 0; k < 3; ++k) {
        const std::int16_t *row = w.data() + k * simd::kMacLanes;
        mac.mulAcc(n[k], row);
        mac.flush(out);
        for (int i = 0; i < simd::kMacLanes; ++i)
            expect[i] += std::int64_t{n[k]} * row[i];
    }
    const std::int16_t small[] = {3, -300, 300, 1};
    for (const std::int16_t v : small) {
        mac.mulAcc(v, w.data());
        for (int i = 0; i < simd::kMacLanes; ++i)
            expect[i] += std::int64_t{v} * w[static_cast<std::size_t>(i)];
    }
    mac.flush(out);
    for (int i = 0; i < simd::kMacLanes; ++i)
        EXPECT_EQ(out[i], expect[i]) << "lane " << i;
}

/**
 * LaneSums<kWidth> against per-lane scalar sums, for every lane count
 * up to kWidth. Each live lane gains five differences over the whole
 * unsigned 16-bit range but 0xffff, half of them at or above 2^15 (a
 * sign-extending widen would get those wrong), with hi below lo about
 * half of the time (the prefix sums wrapped). Every lane past `lanes`
 * gains 0xffff per row, so its sum exceeds every live lane's: any of
 * it reaching a reduction would raise the max or change the sum.
 */
template <int kWidth>
void
expectLaneSumsMatchScalar(cnv::sim::Rng &rng)
{
    std::vector<std::uint16_t> hi(kWidth), lo(kWidth);
    for (int lanes = 1; lanes <= kWidth; ++lanes) {
        simd::LaneSums<kWidth> sums;
        std::vector<std::uint32_t> want(kWidth, 0);
        for (int row = 0; row < 5; ++row) {
            for (int i = 0; i < kWidth; ++i) {
                lo[i] = static_cast<std::uint16_t>(rng.uniformInt(
                    std::int64_t{0}, std::int64_t{0xffff}));
                const auto diff = i < lanes
                    ? static_cast<std::uint16_t>(rng.uniformInt(
                          std::int64_t{0}, std::int64_t{0xfffe}))
                    : std::uint16_t{0xffff};
                hi[i] = static_cast<std::uint16_t>(lo[i] + diff);
                want[i] += diff;
            }
            sums.addWrappedDiffs(hi.data(), lo.data());
        }
        const auto live = want.begin() + lanes;
        EXPECT_EQ(sums.max(lanes), *std::max_element(want.begin(), live))
            << "width " << kWidth << ", lanes " << lanes;
        EXPECT_EQ(sums.sum(lanes),
                  std::accumulate(want.begin(), live, std::uint32_t{0}))
            << "width " << kWidth << ", lanes " << lanes;
    }
}

TEST(Simd, LaneSumsMatchScalarInTheirFirstLanes)
{
    cnv::sim::Rng rng(0xd1ff);
    expectLaneSumsMatchScalar<16>(rng);
    expectLaneSumsMatchScalar<32>(rng);
    expectLaneSumsMatchScalar<48>(rng);
    expectLaneSumsMatchScalar<64>(rng);
}

/** Today's scalar Bernoulli loop, with the min(1, q) clamp that
 *  bernoulliBlock drops. */
std::uint64_t
bernoulliScalar(std::uint64_t counter, int n, double s, const double *rate,
                double scale, double active)
{
    std::uint64_t bits = 0;
    for (int j = 0; j < n; ++j) {
        const std::uint64_t h =
            cnv::core::mix64(counter + j * cnv::core::kGoldenGamma);
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        const double q = std::min(1.0, s * rate[j] * scale * active);
        bits |= std::uint64_t{u < q} << j;
    }
    return bits;
}

/** The inverse of x -> x ^ (x >> shift). */
std::uint64_t
unXorShift(std::uint64_t y, int shift)
{
    std::uint64_t x = y;
    for (int i = 0; i < 64 / shift; ++i)
        x = y ^ (x >> shift);
    return x;
}

/** The inverse of an odd multiplier mod 2^64 (Newton's iteration). */
std::uint64_t
inverseMod64(std::uint64_t m)
{
    std::uint64_t inv = m;
    for (int i = 0; i < 5; ++i)
        inv *= 2 - m * inv;
    return inv;
}

/** The x with mix64(x) == y: every step of SplitMix64 is a bijection. */
std::uint64_t
unmix64(std::uint64_t y)
{
    std::uint64_t x = unXorShift(y, 31);
    x *= inverseMod64(cnv::core::kMix64Mul2);
    x = unXorShift(x, 27);
    x *= inverseMod64(cnv::core::kMix64Mul1);
    x = unXorShift(x, 30);
    return x - cnv::core::kGoldenGamma;
}

TEST(Simd, BernoulliBlockMatchesScalar)
{
    namespace core = cnv::core;
    cnv::sim::Rng rng(0xbe57);
    std::vector<double> rate(64);
    // Rate rows: q = 0, q below 2^-53 (no draw is below it but 0),
    // q >= 1 (the dropped clamp: every draw is below 1), ordinary
    // probabilities, and all of them mixed in one row.
    const auto fillRow = [&](int kind) {
        for (double &r : rate) {
            const int k = kind < 4 ? kind
                                   : static_cast<int>(rng.uniformInt(4));
            r = k == 0   ? 0.0
                : k == 1 ? rng.uniform(0.0, 0x1.0p-54)
                : k == 2 ? rng.uniform(1.0, 3.0)
                         : rng.uniform();
        }
    };
    for (int kind = 0; kind < 5; ++kind) {
        for (int n = 1; n <= 64; ++n) {
            for (int trial = 0; trial < 8; ++trial) {
                fillRow(kind);
                const std::uint64_t counter = rng.next();
                const double s = kind == 2 ? 1.0 : rng.uniform(0.5, 1.5);
                const double scale = kind == 2 ? 1.0 : rng.uniform(0.5, 1.5);
                const double active = kind == 2 ? 1.0 : rng.uniform(0.1, 1.0);
                const double *r = rate.data();
                const std::uint64_t want =
                    bernoulliScalar(counter, n, s, r, scale, active);
                EXPECT_EQ(core::simd::bernoulliBlock(counter, n, s, r, scale,
                                                     active),
                          want)
                    << "kind " << kind << " n " << n << " trial " << trial;
            }
        }
    }

    // Draws that land exactly on q = m * 2^-53 leave their bit clear,
    // and the draw one step below sets it: the compare is a strict <.
    // A mask digest would not see a slip to <=, since a random draw
    // equals q with probability about 2^-53.
    for (int trial = 0; trial < 256; ++trial) {
        const int n = 1 + static_cast<int>(rng.uniformInt(64));
        const int j = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(n)));
        fillRow(3);
        const std::uint64_t m =
            1 + rng.uniformInt(trial % 2 == 0 ? 64
                                              : (std::uint64_t{1} << 53) - 1);
        rate[j] = static_cast<double>(m) * 0x1.0p-53;
        for (const std::uint64_t draw : {m, m - 1}) {
            // Any low 11 bits: the block looks at the top 53 only.
            const std::uint64_t y = draw << 11 | rng.uniformInt(2048);
            const std::uint64_t x = unmix64(y);
            ASSERT_EQ(core::mix64(x), y);
            const std::uint64_t counter = x - j * core::kGoldenGamma;
            const std::uint64_t bits = core::simd::bernoulliBlock(
                counter, n, 1.0, rate.data(), 1.0, 1.0);
            EXPECT_EQ(bits >> j & 1, draw < m ? 1u : 0u)
                << "trial " << trial << " m " << m;
            EXPECT_EQ(bits,
                      bernoulliScalar(counter, n, 1.0, rate.data(), 1.0, 1.0))
                << "trial " << trial;
        }
    }
}

} // namespace
