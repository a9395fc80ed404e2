/** @file Tests for synthetic activation trace generation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

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

TEST(Traces, ConvInputDigestIsPinned)
{
    // FNV-1a over the raw bytes of every conv input of every zoo
    // network (scale 2, image 7), unpruned then pruned. It pins the
    // counter-based stage 1 and the stage-2 magnitude streams.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const NeuronTensor &t) {
        for (const Fixed16 v : t) {
            const unsigned raw = static_cast<std::uint16_t>(v.raw());
            for (const unsigned byte : {raw & 0xffU, raw >> 8U}) {
                h ^= byte;
                h *= 1099511628211ULL;
            }
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
    EXPECT_EQ(h, 0x77580bea5cd1f5edULL);
}

TEST(Traces, ActivityMaskMarksExactlyTheNonZeros)
{
    for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016, 2);
        for (int nodeId : net->convNodeIds()) {
            const nn::Activity activity =
                nn::synthesizeConvActivity(*net, nodeId, 5);
            const NeuronTensor values = nn::synthesizeValues(activity);
            ASSERT_EQ(activity.mask.shape(), values.shape());
            EXPECT_EQ(values, nn::synthesizeConvInput(*net, nodeId, 5));
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < values.size(); ++i)
                mismatches +=
                    activity.mask.test(i) == values.data()[i].isZero();
            EXPECT_EQ(mismatches, 0u)
                << nn::zoo::netName(id) << " node " << nodeId;
            EXPECT_EQ(activity.mask.count(), tensor::countNonZero(values));
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
                sim::mix64(key + i * sim::kGoldenGamma);
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

TEST(Traces, UnprunedZeroOperandFractionMatchesTheValues)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Google, 2016, 2);
    double weightedZero = 0.0;
    double totalMacs = 0.0;
    for (int id : net->convNodeIds()) {
        const double macs = static_cast<double>(net->node(id).macs());
        weightedZero +=
            tensor::zeroFraction(nn::synthesizeConvInput(*net, id, 3)) * macs;
        totalMacs += macs;
    }
    EXPECT_EQ(nn::zeroOperandFraction(*net, 3), weightedZero / totalMacs);
}

TEST(Traces, ZeroOperandFractionStableAcrossImages)
{
    auto net = nn::zoo::build(nn::zoo::NetId::CnnS, 3);
    const double f1 = nn::zeroOperandFraction(*net, 1);
    const double f2 = nn::zeroOperandFraction(*net, 2);
    EXPECT_NEAR(f1, f2, 0.02); // Figure 1's small error bars
}

} // namespace
