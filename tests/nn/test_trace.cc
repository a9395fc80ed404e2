/** @file Tests for synthetic activation trace generation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <optional>
#include <vector>

#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/rng.h"

namespace {

using namespace cnv;
using tensor::Fixed16;
using tensor::NeuronTensor;

TEST(Traces, HitsTargetZeroFraction)
{
    for (double target : {0.2, 0.44, 0.7}) {
        nn::SparsityModel model;
        model.zeroFraction = target;
        sim::Rng rng(100 + static_cast<int>(target * 100));
        const NeuronTensor t =
            nn::synthesizeActivations({32, 32, 128}, model, rng);
        EXPECT_NEAR(tensor::zeroFraction(t), target, 0.02) << target;
    }
}

TEST(Traces, ExtremesAreExact)
{
    nn::SparsityModel model;
    sim::Rng rng(1);
    model.zeroFraction = 1.0;
    EXPECT_DOUBLE_EQ(tensor::zeroFraction(nn::synthesizeActivations(
                         {8, 8, 32}, model, rng)), 1.0);
    model.zeroFraction = 0.0;
    EXPECT_DOUBLE_EQ(tensor::zeroFraction(nn::synthesizeActivations(
                         {8, 8, 32}, model, rng)), 0.0);
}

TEST(Traces, NonZeroValuesArePositive)
{
    nn::SparsityModel model;
    model.zeroFraction = 0.5;
    sim::Rng rng(3);
    const NeuronTensor t = nn::synthesizeActivations({8, 8, 64}, model, rng);
    for (const Fixed16 v : t)
        EXPECT_GE(v.raw(), 0);
}

TEST(Traces, ChannelDispersionWidensFiringRateSpread)
{
    // Higher channel dispersion must widen the distribution of
    // per-channel firing rates (rarely- vs often-firing features).
    auto rateVariance = [](double dispersion) {
        nn::SparsityModel model;
        model.zeroFraction = 0.5;
        model.channelDispersion = dispersion;
        model.spatialDispersion = 0.0;
        sim::Rng rng(17);
        const NeuronTensor t =
            nn::synthesizeActivations({16, 16, 256}, model, rng);
        double sum = 0, sumSq = 0;
        for (int z = 0; z < 256; ++z) {
            int nz = 0;
            for (int y = 0; y < 16; ++y)
                for (int x = 0; x < 16; ++x)
                    nz += !t.at(x, y, z).isZero();
            const double rate = nz / 256.0;
            sum += rate;
            sumSq += rate * rate;
        }
        const double mean = sum / 256.0;
        return sumSq / 256.0 - mean * mean;
    };
    EXPECT_GT(rateVariance(0.8), 2.0 * rateVariance(0.05));
}

TEST(Traces, SameSeedSameTrace)
{
    nn::SparsityModel model;
    sim::Rng a(5), b(5);
    EXPECT_EQ(nn::synthesizeActivations({8, 8, 32}, model, a),
              nn::synthesizeActivations({8, 8, 32}, model, b));
}

TEST(Traces, InputSegmentsLinearNetwork)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 1, 8);
    // conv1's input is the raw image.
    const auto seg1 =
        nn::inputSegments(*net, net->convNodeIds()[0]);
    ASSERT_EQ(seg1.size(), 1u);
    EXPECT_EQ(seg1[0].producerConvIndex, -1);
    // conv2's input is conv1's output (through pool/LRN).
    const auto seg2 =
        nn::inputSegments(*net, net->convNodeIds()[1]);
    ASSERT_EQ(seg2.size(), 1u);
    EXPECT_EQ(seg2[0].producerConvIndex, 0);
}

TEST(Traces, InputSegmentsThroughConcat)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Google, 1, 8);
    // Find a conv whose input crosses a concat (an inception-3b
    // 1x1): it should see four producer segments.
    bool found = false;
    for (int id : net->convNodeIds()) {
        const auto segs = nn::inputSegments(*net, id);
        if (segs.size() == 4) {
            int total = 0;
            for (const auto &s : segs) {
                EXPECT_GE(s.producerConvIndex, 0);
                total += s.depth;
            }
            EXPECT_EQ(total, net->node(id).inShape.z);
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Traces, SynthesizedConvInputMatchesLayerTarget)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 3);
    const int conv3 = net->convNodeIds()[4];
    const NeuronTensor in = nn::synthesizeConvInput(*net, conv3, 42);
    EXPECT_NEAR(tensor::zeroFraction(in),
                net->node(conv3).conv.inputZeroFraction, 0.03);
}

TEST(Traces, PruneThresholdIncreasesZeroFraction)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    const int conv3 = net->convNodeIds()[2];
    const NeuronTensor plain = nn::synthesizeConvInput(*net, conv3, 7);
    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 48);
    const NeuronTensor pruned =
        nn::synthesizeConvInput(*net, conv3, 7, &prune);
    EXPECT_GT(tensor::zeroFraction(pruned), tensor::zeroFraction(plain));
    // Pruned values are exactly the sub-threshold ones.
    for (int y = 0; y < plain.shape().y; ++y)
        for (int x = 0; x < plain.shape().x; ++x)
            for (int z = 0; z < plain.shape().z; ++z) {
                const Fixed16 a = plain.at(x, y, z);
                const Fixed16 b = pruned.at(x, y, z);
                if (a.rawAbs() < 48)
                    EXPECT_TRUE(b.isZero());
                else
                    EXPECT_EQ(a, b);
            }
}

/** Thresholds that prune something in every conv-fed segment. */
nn::PruneConfig
ladderPrune(const nn::Network &net)
{
    nn::PruneConfig prune;
    for (int i = 0; i < net.convLayerCount(); ++i)
        prune.thresholds.push_back(16 + 8 * (i % 5));
    return prune;
}

/** FNV-1a, one byte at a time. */
struct Fnv1a
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    byte(unsigned b)
    {
        h ^= b;
        h *= 1099511628211ULL;
    }
};

TEST(Traces, ConvInputMaskDigestIsPinned)
{
    // One byte per element (its mask bit) of every conv input's
    // stage-1 activity, every zoo network at scale 2, image 7. It pins
    // the counter-based stage 1 alone.
    Fnv1a fnv;
    for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016, 2);
        for (int nodeId : net->convNodeIds()) {
            const tensor::ActivityMask mask =
                nn::synthesizeConvActivity(*net, nodeId, 7).mask;
            for (std::size_t i = 0; i < mask.size(); ++i)
                fnv.byte(mask.test(i) ? 1U : 0U);
        }
    }
    EXPECT_EQ(fnv.h, 0xbf57d1245fb1535eULL);
}

TEST(Traces, ConvInputValuesDigestIsPinned)
{
    // The raw bytes of the same conv inputs, unpruned then pruned: it
    // pins the stage-2 magnitudes on top of the mask.
    Fnv1a fnv;
    auto mix = [&fnv](const NeuronTensor &t) {
        for (const Fixed16 v : t) {
            const unsigned raw = static_cast<std::uint16_t>(v.raw());
            fnv.byte(raw & 0xffU);
            fnv.byte(raw >> 8U);
        }
    };
    for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016, 2);
        const nn::PruneConfig prune = ladderPrune(*net);
        for (int nodeId : net->convNodeIds()) {
            mix(nn::synthesizeConvInput(*net, nodeId, 7));
            mix(nn::synthesizeConvInput(*net, nodeId, 7, &prune));
        }
    }
    EXPECT_EQ(fnv.h, 0xee5b7975187a7bc8ULL);
}

TEST(Traces, ActivityMaskMarksExactlyTheNonZeros)
{
    // The stage-1 mask marks the unpruned values' non-zeros, and
    // prunedMask marks those of the values pruned by ladderPrune.
    for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016, 2);
        const nn::PruneConfig prune = ladderPrune(*net);
        for (int nodeId : net->convNodeIds()) {
            const nn::Activity activity =
                nn::synthesizeConvActivity(*net, nodeId, 5);
            EXPECT_EQ(nn::synthesizeValues(activity),
                      nn::synthesizeConvInput(*net, nodeId, 5));
            EXPECT_EQ(nn::prunedMask(activity, nullptr), activity.mask);
            for (const nn::PruneConfig *p :
                 {static_cast<const nn::PruneConfig *>(nullptr), &prune}) {
                const tensor::ActivityMask mask = nn::prunedMask(activity, p);
                const NeuronTensor values = nn::synthesizeValues(activity, p);
                ASSERT_EQ(mask.shape(), values.shape());
                std::size_t mismatches = 0;
                for (std::size_t i = 0; i < values.size(); ++i)
                    mismatches += mask.test(i) == values.data()[i].isZero();
                EXPECT_EQ(mismatches, 0u)
                    << nn::zoo::netName(id) << " node " << nodeId
                    << (p ? " pruned" : "");
                EXPECT_EQ(mask.count(), tensor::countNonZero(values));
            }
        }
    }
}

TEST(Traces, ActivityStageLeavesTheStreamWhereSynthesisDoes)
{
    for (double zf : {0.0, 0.3, 1.0}) {
        nn::SparsityModel model;
        model.zeroFraction = zf;
        sim::Rng full(12);
        sim::Rng staged(12);
        const NeuronTensor t =
            nn::synthesizeActivations({7, 5, 19}, model, full);
        const nn::Activity activity =
            nn::synthesizeActivity({7, 5, 19}, model, staged);
        EXPECT_EQ(nn::synthesizeValues(activity), t) << zf;
        for (int k = 0; k < 3; ++k) {
            EXPECT_EQ(full.normal(), staged.normal()) << zf;
            EXPECT_EQ(full.next(), staged.next()) << zf;
        }
    }
}

TEST(Traces, NormalisationMatchesTheDirectClampedMean)
{
    // The field's scale, fitted by four sorted-prefix passes, against
    // four passes of the direct O(XYZ) clamped mean on random fields;
    // every fourth model clamps heavily.
    sim::Rng rng(2024);
    for (int trial = 0; trial < 40; ++trial) {
        const bool heavy = trial % 4 == 0;
        nn::SparsityModel model;
        model.zeroFraction = heavy ? 0.05 : rng.uniform(0.05, 0.95);
        model.channelDispersion = heavy ? 1.5 : rng.uniform(0.0, 1.5);
        model.spatialDispersion = rng.uniform(0.0, 1.0);
        const int width = 1 + static_cast<int>(rng.uniformInt(20));
        const int height = 1 + static_cast<int>(rng.uniformInt(20));
        const int depth = 1 + static_cast<int>(rng.uniformInt(300));
        const nn::ActivityField field =
            nn::drawActivityField(width, height, depth, model, rng);
        double scale = 1.0;
        std::size_t clamped = 0;
        for (int iter = 0; iter < 4; ++iter) {
            const double c = scale * field.active;
            double mean = 0.0;
            clamped = 0;
            for (const double s : field.spatial)
                for (const double r : field.channelRate) {
                    mean += std::min(1.0, c * s * r);
                    clamped += c * s * r >= 1.0;
                }
            mean /= static_cast<double>(field.spatial.size() *
                                        field.channelRate.size());
            scale *= field.active / mean;
        }
        EXPECT_NEAR(field.scale, scale, 1e-12 * scale) << "trial " << trial;
        if (heavy) {
            EXPECT_GT(clamped, 0u) << "trial " << trial;
        }
    }
}

TEST(Traces, ElementActivityIsItsCounterDraw)
{
    // Element i of a segment is active iff output i of the SplitMix64
    // stream seeded by the key drawn after the field is below q.
    nn::SparsityModel model;
    model.zeroFraction = 0.4;
    const tensor::Shape3 shape{7, 5, 19};
    sim::Rng rng(12);
    sim::Rng replay = rng;
    const nn::Activity activity = nn::synthesizeActivity(shape, model, rng);
    const nn::ActivityField field =
        nn::drawActivityField(shape.x, shape.y, shape.z, model, replay);
    const std::uint64_t key = replay.next();
    std::size_t i = 0;
    for (std::size_t column = 0; column < field.spatial.size(); ++column)
        for (int z = 0; z < shape.z; ++z, ++i) {
            const std::uint64_t h =
                core::mix64(key + i * core::kGoldenGamma);
            const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
            EXPECT_EQ(activity.mask.test(i), u < field.q(column, z)) << i;
        }
    EXPECT_EQ(i, activity.mask.size());
}

TEST(Traces, ChannelActiveCountsFollowTheField)
{
    // A channel's active count is a sum of independent Bernoulli(q)
    // draws, one per column: within 4 sigma of its mean.
    const tensor::Shape3 shape{32, 32, 128};
    for (const double dispersion : {0.35, 1.5}) {
        nn::SparsityModel model;
        model.zeroFraction = dispersion > 1.0 ? 0.05 : 0.44;
        model.channelDispersion = dispersion;
        sim::Rng rng(77);
        sim::Rng replay = rng;
        const nn::Activity activity =
            nn::synthesizeActivity(shape, model, rng);
        const nn::ActivityField field =
            nn::drawActivityField(shape.x, shape.y, shape.z, model, replay);
        for (int z = 0; z < shape.z; ++z) {
            double mean = 0.0;
            double variance = 0.0;
            double count = 0.0;
            for (std::size_t column = 0; column < field.spatial.size();
                 ++column) {
                const double q = field.q(column, z);
                mean += q;
                variance += q * (1.0 - q);
                count += activity.mask.test(column * shape.z + z);
            }
            EXPECT_LE(std::abs(count - mean), 4.0 * std::sqrt(variance))
                << "dispersion " << dispersion << " channel " << z;
        }
    }
}

/**
 * The analytic law of a stored magnitude, independent of the
 * generator's table: v = lround(clamp(exp(N(mu, sigma)), 1, 32767))
 * with mean 96 raw units and sigma 0.9.
 */
struct MagnitudeLaw
{
    static constexpr double kSigma = 0.9;
    static constexpr int kMax = 32767;

    static double
    t(int k)
    {
        const double mu = std::log(96.0) - 0.5 * kSigma * kSigma;
        return (std::log(k + 0.5) - mu) / (kSigma * std::numbers::sqrt2);
    }
    /** P(v <= k). */
    static double
    cdf(int k)
    {
        return k < 1 ? 0.0 : k >= kMax ? 1.0 : 0.5 * std::erfc(-t(k));
    }
    /** P(v > k), accurate where it is small. */
    static double
    tail(int k)
    {
        return k < 1 ? 1.0 : k >= kMax ? 0.0 : 0.5 * std::erfc(t(k));
    }
};

/**
 * Whether u / 2^64 lies in [P(v < k), P(v <= k)) up to a relative
 * 1e-9 of the smaller side, each side compared in the tail that is
 * accurate there.
 */
::testing::AssertionResult
bracketsDraw(std::uint64_t u, int k)
{
    const bool low = u < (std::uint64_t{1} << 63);
    // u / 2^64 below the median, 1 - u / 2^64 above it.
    const double p = low ? static_cast<double>(u) * 0x1.0p-64
                         : static_cast<double>(std::uint64_t{0} - u) *
                               0x1.0p-64;
    auto side = [low](int j) {
        return low ? MagnitudeLaw::cdf(j) : MagnitudeLaw::tail(j);
    };
    const double a = side(k - 1);
    const double b = side(k);
    const double tol = 1e-9 * std::min(a, b) + 0x1.0p-64;
    const bool ok = low ? a - tol <= p && p < b + tol
                        : b - tol <= p && p < a + tol;
    if (ok)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "u " << u << " drew " << k << " outside its CDF step";
}

TEST(Traces, MagnitudeOfDrawInvertsTheAnalyticCdf)
{
    EXPECT_EQ(nn::magnitudeOfDraw(0), 1);
    EXPECT_EQ(nn::magnitudeOfDraw(std::numeric_limits<std::uint64_t>::max()),
              MagnitudeLaw::kMax);
    // Random draws, and draws inside the ~2e-6 tail beyond the table.
    sim::Rng rng(31);
    for (int n = 0; n < 200000; ++n) {
        const std::uint64_t u = rng.next();
        EXPECT_TRUE(bracketsDraw(u, nn::magnitudeOfDraw(u)));
    }
    for (int n = 0; n < 2000; ++n) {
        const std::uint64_t u =
            std::uint64_t{0} - 1 - rng.uniformInt(std::uint64_t{1} << 46);
        EXPECT_TRUE(bracketsDraw(u, nn::magnitudeOfDraw(u)));
    }
    // Either side of step boundaries: in the body, at the table's
    // end (k = 4096) and deep in the tail. Draws never decrease in u.
    for (const int k : {1, 2, 3, 27, 28, 96, 500, 4095, 4096, 4097, 9000,
                        32766}) {
        const std::uint64_t edge =
            MagnitudeLaw::cdf(k) < 0.5
                ? static_cast<std::uint64_t>(
                      std::ldexp(MagnitudeLaw::cdf(k), 64))
                : std::uint64_t{0} -
                      static_cast<std::uint64_t>(
                          std::ldexp(MagnitudeLaw::tail(k), 64));
        int previous = 0;
        for (std::uint64_t u = edge - 4; u != edge + 4; ++u) {
            const int v = nn::magnitudeOfDraw(u);
            EXPECT_TRUE(bracketsDraw(u, v)) << "k " << k;
            EXPECT_TRUE(v == k || v == k + 1) << "k " << k << " v " << v;
            EXPECT_GE(v, previous) << "k " << k;
            previous = v;
        }
    }
}

TEST(Traces, MagnitudeCutoffIsTheFirstDrawThatKeeps)
{
    // prunedMask keeps a draw u at threshold t iff u >= the cutoff.
    // magnitudeOfDraw never decreases in u, so that is "magnitude >=
    // t" exactly when the cutoff is the first draw whose magnitude
    // reaches t. Checked at every threshold a magnitude can meet.
    for (std::int32_t t = 2; t <= MagnitudeLaw::kMax; ++t) {
        // No cutoff reads as 0, which fails the first check.
        const std::uint64_t c = nn::magnitudeCutoff(t).value_or(0);
        ASSERT_GT(c, 0u) << t;
        ASSERT_GE(nn::magnitudeOfDraw(c), t) << t;
        ASSERT_LT(nn::magnitudeOfDraw(c - 1), t) << t;
    }
    // Every draw keeps a threshold <= 1 and none keeps one above the
    // largest magnitude.
    for (const std::int32_t t : {0, 1, MagnitudeLaw::kMax + 1}) {
        const std::optional<std::uint64_t> c = nn::magnitudeCutoff(t);
        for (const std::uint64_t u :
             {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()})
            EXPECT_EQ(c.has_value() && u >= *c, nn::magnitudeOfDraw(u) >= t)
                << "t " << t << " u " << u;
    }
}

/**
 * Pearson's statistic of `counts` (indexed by magnitude; `n` draws in
 * all) against MagnitudeLaw. Bins are consecutive magnitudes, each
 * closed once it and the tail beyond it expect 5 draws, so the last
 * bin is the whole upper tail; `bins` receives their number.
 */
double
magnitudeChiSquared(const std::vector<int> &counts, double n, int &bins)
{
    double chi2 = 0.0;
    bins = 0;
    double expected = 0.0;
    double observed = 0.0;
    for (int k = 1; k <= MagnitudeLaw::kMax; ++k) {
        expected += n * (MagnitudeLaw::cdf(k) - MagnitudeLaw::cdf(k - 1));
        observed += counts[static_cast<std::size_t>(k)];
        const double beyond = n * MagnitudeLaw::tail(k);
        if ((expected >= 5.0 && beyond >= 5.0) || k == MagnitudeLaw::kMax) {
            chi2 += (observed - expected) * (observed - expected) / expected;
            ++bins;
            expected = observed = 0.0;
        }
    }
    return chi2;
}

TEST(Traces, MagnitudesFollowTheQuantisedLognormal)
{
    // Per segment, a chi-squared goodness-of-fit test of the active
    // elements' magnitudes against the analytic bin probabilities.
    int segmentsTested = 0;
    for (const nn::zoo::NetId id :
         {nn::zoo::NetId::Alex, nn::zoo::NetId::Google,
          nn::zoo::NetId::Vgg19}) {
        const auto net = nn::zoo::build(id, 2016, 2);
        for (const int nodeId : net->convNodeIds()) {
            const nn::Activity activity =
                nn::synthesizeConvActivity(*net, nodeId, 11);
            const NeuronTensor values = nn::synthesizeValues(activity);
            const tensor::Shape3 shape = values.shape();
            int zBase = 0;
            for (const nn::Activity::Segment &seg : activity.segments) {
                std::vector<int> counts(MagnitudeLaw::kMax + 1, 0);
                double n = 0.0;
                for (int y = 0; y < shape.y; ++y)
                    for (int x = 0; x < shape.x; ++x)
                        for (int z = zBase; z < zBase + seg.depth; ++z) {
                            const int v = values.at(x, y, z).raw();
                            if (v != 0) {
                                ++counts[static_cast<std::size_t>(v)];
                                ++n;
                            }
                        }
                zBase += seg.depth;
                // Large enough for a meaningful test.
                if (n < 20000.0)
                    continue;
                int bins = 0;
                const double chi2 = magnitudeChiSquared(counts, n, bins);
                // Upper 0.1% point of chi-squared with bins - 1 degrees
                // of freedom (Wilson-Hilferty).
                const double df = bins - 1;
                const double c = 2.0 / (9.0 * df);
                const double critical =
                    df * std::pow(1.0 - c + 3.090 * std::sqrt(c), 3.0);
                EXPECT_LT(chi2, critical)
                    << nn::zoo::netName(id) << " node " << nodeId
                    << " depth " << seg.depth << " n " << n << " bins "
                    << bins;
                ++segmentsTested;
            }
        }
    }
    EXPECT_GE(segmentsTested, 10);
}

TEST(Traces, ElementMagnitudeIsItsCounterDraw)
{
    // Element i of a segment (local index) holds the table draw of
    // output i of the SplitMix64 stream seeded by the segment's key,
    // whatever the rest of the mask holds. A google inception input
    // has four segments, so local indices and keys differ per segment.
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016, 2);
    int nodeId = -1;
    for (const int id : net->convNodeIds())
        if (nn::inputSegments(*net, id).size() == 4) {
            nodeId = id;
            break;
        }
    ASSERT_GE(nodeId, 0);
    const nn::Activity activity = nn::synthesizeConvActivity(*net, nodeId, 9);
    const NeuronTensor values = nn::synthesizeValues(activity);
    const tensor::Shape3 shape = values.shape();
    auto expected = [&](int x, int y, int z) {
        int zBase = 0;
        for (const nn::Activity::Segment &seg : activity.segments) {
            if (z < zBase + seg.depth) {
                const std::uint64_t i =
                    (static_cast<std::uint64_t>(y) * shape.x + x) *
                        static_cast<std::uint64_t>(seg.depth) +
                    static_cast<std::uint64_t>(z - zBase);
                return nn::magnitudeOfDraw(
                    core::mix64(seg.magnitudes + i * core::kGoldenGamma));
            }
            zBase += seg.depth;
        }
        return -1;
    };
    std::size_t active = 0;
    std::size_t mismatches = 0;
    for (int y = 0; y < shape.y; ++y)
        for (int x = 0; x < shape.x; ++x)
            for (int z = 0; z < shape.z; ++z) {
                const std::size_t i =
                    (static_cast<std::size_t>(y) * shape.x + x) * shape.z + z;
                if (!activity.mask.test(i))
                    continue;
                ++active;
                mismatches += values.at(x, y, z).raw() != expected(x, y, z);
            }
    EXPECT_GT(active, 1000u);
    EXPECT_EQ(mismatches, 0u);

    // Clearing one active element's bit zeroes it and leaves every
    // other value as it was.
    for (const std::size_t cleared : {std::size_t{0}, values.size() / 3,
                                      values.size() - 1}) {
        std::size_t c = cleared;
        while (!activity.mask.test(c))
            c = (c + 1) % values.size();
        nn::Activity other = activity;
        other.mask = tensor::ActivityMask(shape);
        for (std::size_t i = 0; i < values.size(); ++i)
            if (i != c && activity.mask.test(i))
                other.mask.setBits(i, 1);
        const NeuronTensor changed = nn::synthesizeValues(other);
        std::size_t moved = 0;
        for (std::size_t i = 0; i < values.size(); ++i)
            moved += i != c && changed.data()[i] != values.data()[i];
        EXPECT_TRUE(changed.data()[c].isZero()) << c;
        EXPECT_EQ(moved, 0u) << "cleared " << c;
    }
}

TEST(Traces, ZeroOperandFractionMatchesTheValues)
{
    // Unpruned and with a different threshold per conv layer, so
    // google's concat inputs prune each producer branch differently.
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016, 2);
    nn::PruneConfig prune;
    const std::int32_t ladder[] = {0, 8, 64, 300, 4097};
    for (int i = 0; i < net->convLayerCount(); ++i)
        prune.thresholds.push_back(ladder[i % 5]);
    double unpruned = 0.0;
    const nn::PruneConfig *const configs[] = {nullptr, &prune};
    for (const nn::PruneConfig *p : configs) {
        double weightedZero = 0.0;
        double totalMacs = 0.0;
        for (int id : net->convNodeIds()) {
            const double macs = static_cast<double>(net->node(id).macs());
            weightedZero += tensor::zeroFraction(
                                nn::synthesizeConvInput(*net, id, 3, p)) *
                            macs;
            totalMacs += macs;
        }
        const double zf = nn::zeroOperandFraction(*net, 3, p);
        EXPECT_EQ(zf, weightedZero / totalMacs) << (p ? "pruned" : "unpruned");
        if (!p)
            unpruned = zf;
        else
            EXPECT_GT(zf, unpruned);
    }
}

TEST(Traces, ZeroOperandFractionStableAcrossImages)
{
    auto net = nn::zoo::build(nn::zoo::NetId::CnnS, 3);
    const double f1 = nn::zeroOperandFraction(*net, 1);
    const double f2 = nn::zeroOperandFraction(*net, 2);
    EXPECT_NEAR(f1, f2, 0.02); // Figure 1's small error bars
}

} // namespace
