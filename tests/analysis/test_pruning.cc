/** @file Tests for the pruning threshold explorer. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/parallel.h"

namespace {

using namespace cnv;

TEST(Pruning, ZeroThresholdsAreAlwaysLossless)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    net->calibrate();
    nn::PruneConfig none;
    none.thresholds.assign(net->convLayerCount(), 0);
    EXPECT_DOUBLE_EQ(pruning::relativeAccuracy(*net, none, 6, 9), 1.0);
}

TEST(Pruning, ExtremeThresholdsDestroyAccuracy)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    net->calibrate();
    // Unpruned predictions must vary across images, else agreement
    // is vacuous (the synthetic image generator guarantees this).
    std::set<int> classes;
    for (int i = 0; i < 8; ++i) {
        const auto input =
            nn::synthesizeImage(net->node(0).outShape, 9 + i);
        classes.insert(net->forward(input).top1);
    }
    EXPECT_GE(classes.size(), 2u);

    // A threshold above the representable range zeroes every conv
    // output; prediction collapses to a constant.
    nn::PruneConfig nuke;
    nuke.thresholds.assign(net->convLayerCount(), 40000);
    EXPECT_LT(pruning::relativeAccuracy(*net, nuke, 8, 9), 1.0);
}

TEST(Pruning, AccuracyIsMonotoneInThresholdIntensityOnAverage)
{
    auto net = nn::zoo::build(nn::zoo::NetId::CnnS, 3, 16);
    net->calibrate();
    double prev = 1.1;
    bool everDropped = false;
    for (std::int32_t t : {0, 128, 2048, 20000}) {
        nn::PruneConfig cfg;
        cfg.thresholds.assign(net->convLayerCount(), t);
        const double acc = pruning::relativeAccuracy(*net, cfg, 8, 4);
        EXPECT_LE(acc, prev + 0.25); // loose monotonicity
        everDropped |= acc < 1.0;
        prev = acc;
    }
    EXPECT_TRUE(everDropped);
}

TEST(Pruning, ParetoFrontierIsMonotone)
{
    std::vector<pruning::ExplorationPoint> pts;
    auto add = [&](double speedup, double acc) {
        pruning::ExplorationPoint p;
        p.speedup = speedup;
        p.relativeAccuracy = acc;
        pts.push_back(p);
    };
    add(1.0, 1.0);
    add(1.2, 0.98);
    add(1.1, 0.90); // dominated: slower and less accurate than (1.2,0.98)
    add(1.5, 0.80);
    add(1.4, 0.70); // dominated
    const auto frontier = pruning::paretoFrontier(pts);
    ASSERT_EQ(frontier.size(), 3u);
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(frontier[i].speedup, frontier[i - 1].speedup);
        EXPECT_LT(frontier[i].relativeAccuracy,
                  frontier[i - 1].relativeAccuracy);
    }
}

TEST(Pruning, LosslessSearchFindsNonTrivialThresholds)
{
    // Use the scaled network for both timing and accuracy to keep
    // the test fast; full-geometry search runs in the bench.
    auto accNet = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    accNet->calibrate();

    dadiannao::NodeConfig cfg;
    pruning::SearchOptions opts;
    opts.accuracyImages = 6;
    opts.timingImages = 1;
    opts.levels = {0, 2, 4, 8};

    const auto point =
        pruning::searchLossless(cfg, *accNet, *accNet, opts);
    EXPECT_DOUBLE_EQ(point.relativeAccuracy, 1.0);
    // At least one layer should tolerate a non-zero threshold.
    std::int32_t maxT = 0;
    for (std::int32_t t : point.config.thresholds)
        maxT = std::max(maxT, t);
    EXPECT_GT(maxT, 0);
}

TEST(Pruning, TradeoffSweepProducesOrderedPoints)
{
    auto accNet = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    accNet->calibrate();

    dadiannao::NodeConfig cfg;
    pruning::SearchOptions opts;
    opts.accuracyImages = 4;
    opts.timingImages = 1;
    opts.levels = {0, 8, 64};

    const auto pts = pruning::tradeoffSweep(cfg, *accNet, *accNet, opts);
    ASSERT_GT(pts.size(), 3u);
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_GE(pts[i].speedup, pts[i - 1].speedup);
}

TEST(Pruning, ThresholdGroupsFollowNamePrefixes)
{
    // google: conv1, conv2 stem, nine inception modules, two aux
    // heads = 13 groups (the paper specifies per-module thresholds).
    const auto google = nn::zoo::build(nn::zoo::NetId::Google, 1, 16);
    const auto groups = pruning::thresholdGroups(*google);
    EXPECT_EQ(groups.size(), 13u);
    int covered = 0;
    for (const auto &g : groups)
        covered += static_cast<int>(g.size());
    EXPECT_EQ(covered, google->convLayerCount());

    // Networks without '/'-structured names get one group per layer.
    const auto alex = nn::zoo::build(nn::zoo::NetId::Alex, 1, 16);
    EXPECT_EQ(pruning::thresholdGroups(*alex).size(), 5u);
}

TEST(Pruning, LosslessSearchIsPinned)
{
    // `cnvsim prune nin` with its defaults: seed 2016, a 1/8-scale
    // accuracy net, 6 accuracy images, 1 timing image, search seed
    // 2016 + 7, lossless floor. The outputs must not move under
    // forward-pass optimisations (they are exact by contract).
    const auto fullNet = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    auto accNet = nn::zoo::build(nn::zoo::NetId::Nin, 2016, 8);
    accNet->calibrate();

    dadiannao::NodeConfig node;
    pruning::SearchOptions search;
    search.accuracyImages = 6;
    search.timingImages = 1;
    search.seed = 2016 + 7;
    search.accuracyFloor = 1.0;
    const auto point =
        pruning::searchLossless(node, *fullNet, *accNet, search);

    const std::vector<std::int32_t> expect = {4,  2,  2,   4,   4,   2,
                                              4,  8,  32,  128, 256, 256};
    EXPECT_EQ(point.config.thresholds, expect);
    EXPECT_EQ(point.speedup, 0x1.50f07d42fcbbp+0);
    EXPECT_EQ(point.relativeAccuracy, 1.0);
}

TEST(Pruning, RelativeAccuracyIsPinnedOnScaledVgg19)
{
    // Table II-ladder candidates on the 1/8-scale vgg19: first
    // threshold 0 and > 0, lossless and lossy. Each pruned pass must
    // agree with its reference exactly as it does today.
    auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 2016, 8);
    net->calibrate();
    struct Pin
    {
        std::vector<std::int32_t> thresholds;
        double accuracy;
    };
    const Pin pins[] = {
        {{0, 4, 8, 8, 16, 16, 16, 32, 32, 32, 64, 64, 64, 128, 128, 256},
         1.0},
        {{8, 2, 4, 4, 8, 8, 16, 16, 16, 32, 32, 32, 64, 64, 128, 128},
         1.0},
        {{32, 64, 64, 128, 128, 128, 256, 256, 256, 256, 256, 256, 256,
          256, 256, 256},
         0.0},
        {{256, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0x1p-1},
        {{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 256}, 1.0},
        {{16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},
         1.0},
        {{0, 0, 0, 0, 0, 0, 0, 0, 256, 256, 256, 256, 256, 256, 256, 256},
         0x1p-1},
        {{0, 0, 0, 0, 256, 256, 256, 256, 0, 0, 0, 0, 0, 0, 0, 0},
         0x1.5555555555555p-1},
    };
    for (const Pin &pin : pins) {
        nn::PruneConfig cfg;
        cfg.thresholds = pin.thresholds;
        EXPECT_EQ(pruning::relativeAccuracy(*net, cfg, 6, 77), pin.accuracy)
            << "first threshold " << pin.thresholds.front();
    }
}

TEST(Pruning, RecalibrationDropsMemoisedReferences)
{
    // References memoised before calibrate() describe other weights:
    // a net used, then calibrated, must score like a fresh net that
    // was calibrated before any use.
    nn::PruneConfig cand;
    cand.thresholds = {0, 4, 8, 8, 16, 16, 16, 32,
                       32, 32, 64, 64, 64, 128, 128, 256};
    auto used = nn::zoo::build(nn::zoo::NetId::Vgg19, 2016, 8);
    const nn::Prediction before = used->reference(77);
    pruning::relativeAccuracy(*used, cand, 6, 77);
    used->calibrate();

    auto fresh = nn::zoo::build(nn::zoo::NetId::Vgg19, 2016, 8);
    fresh->calibrate();
    const nn::Prediction after = used->reference(77);
    EXPECT_NE(before.logits, after.logits);
    const nn::ForwardResult run =
        fresh->forward(nn::synthesizeImage(fresh->node(0).outShape, 77));
    EXPECT_EQ(after.top1, run.top1);
    EXPECT_EQ(after.logits, run.logits);
    EXPECT_EQ(pruning::relativeAccuracy(*used, cand, 6, 77),
              pruning::relativeAccuracy(*fresh, cand, 6, 77));
}

TEST(Pruning, MemoisedPrefixIsAFreshCopyUntilRecalibration)
{
    // A memoised unpruned prefix must equal a fresh pass to the cut,
    // and be a copy: the pruned pass thresholds its tensors in place.
    // calibrate() rewrites the biases, so a prefix memoised before it
    // must not outlive it.
    auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 2016, 8);
    const int cut = net->convNodeIds()[0] + 1;
    const auto fresh = [&] {
        return net->advance(
            net->start(nn::synthesizeImage(net->node(0).outShape, 77)),
            cut);
    };
    const nn::LiveSet before = net->unprunedPrefix(77, cut);
    nn::LiveSet hit = net->unprunedPrefix(77, cut);
    EXPECT_EQ(hit.cut, cut);
    EXPECT_EQ(hit.tensors, fresh().tensors);
    ASSERT_FALSE(hit.tensors.empty());
    hit.tensors.front().second.data()[0] = tensor::Fixed16::fromRaw(123);
    EXPECT_EQ(net->unprunedPrefix(77, cut).tensors, fresh().tensors);

    net->calibrate();
    const nn::LiveSet after = net->unprunedPrefix(77, cut);
    EXPECT_EQ(after.tensors, fresh().tensors);
    EXPECT_NE(after.tensors, before.tensors);
}

TEST(Pruning, AccuracyPastTheReferenceMemoCapIsStable)
{
    // More images than the reference memo holds: the memo keeps the
    // first kReferenceMemo and computes the rest on every call. Every
    // reference, memoised or not, is the unpruned forward pass, and a
    // second search over the same images gives the same score.
    const auto cap = static_cast<int>(nn::Network::kReferenceMemo);
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    net->calibrate();
    nn::PruneConfig cfg;
    cfg.thresholds.assign(net->convLayerCount(), 2048);
    const double first = pruning::relativeAccuracy(*net, cfg, cap + 8, 9);
    EXPECT_EQ(pruning::relativeAccuracy(*net, cfg, cap + 8, 9), first);
    for (const int i : {0, cap - 1, cap, cap + 7}) {
        const nn::ForwardResult run = net->forward(
            nn::synthesizeImage(net->node(0).outShape, 9 + i));
        for (int call = 0; call < 2; ++call) {
            const nn::Prediction ref = net->reference(9 + i);
            EXPECT_EQ(ref.top1, run.top1) << "image " << i;
            EXPECT_EQ(ref.logits, run.logits) << "image " << i;
        }
    }
}

TEST(Pruning, MemoisedAccuracyAgreesAcrossJobCounts)
{
    // Cold and warm memos, filled by one worker or by four at once,
    // give one answer per candidate.
    const std::vector<std::vector<std::int32_t>> candidates = {
        {8, 2, 4, 4, 8, 8, 16, 16, 16, 32, 32, 32, 64, 64, 128, 128},
        {0, 0, 0, 0, 256, 256, 256, 256, 0, 0, 0, 0, 0, 0, 0, 0},
        {256, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
    };
    const int jobsBefore = sim::jobCount();
    std::vector<std::vector<double>> scores;
    for (const int jobs : {1, 4}) {
        sim::setJobCount(jobs);
        auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 2016, 8);
        net->calibrate();
        std::vector<double> got;
        for (int round = 0; round < 2; ++round)
            for (const auto &t : candidates) {
                nn::PruneConfig cfg;
                cfg.thresholds = t;
                got.push_back(pruning::relativeAccuracy(*net, cfg, 6, 77));
            }
        scores.push_back(got);
    }
    sim::setJobCount(jobsBefore);
    EXPECT_EQ(scores[0], scores[1]);
    EXPECT_EQ(scores[0][0], 1.0);
}

} // namespace
