#include "pruning/explore.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "arch/registry.h"
#include "nn/trace.h"
#include "sim/logging.h"
#include "sim/parallel.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

namespace cnv::pruning {

using nn::Network;
using nn::PruneConfig;
using tensor::Fixed16;
using tensor::NeuronTensor;

namespace {

/** Unpruned reference prediction for one image. */
struct Reference
{
    int top1 = -1;
    NeuronTensor logits;
    double norm = 0.0; ///< L2 of the logits
};

/** The memoised unpruned prediction of accuracy image `i`. */
Reference
referenceOf(const Network &net, std::uint64_t seed, std::size_t i)
{
    nn::Prediction run = net.reference(seed + i);
    Reference ref;
    ref.top1 = run.top1;
    double sq = 0.0;
    for (const Fixed16 v : run.logits)
        sq += v.toDouble() * v.toDouble();
    ref.norm = std::sqrt(sq);
    ref.logits = std::move(run.logits);
    return ref;
}

/**
 * Canonical (dadiannao over cnv) speedup of `images` traces seeded
 * `seed + i` under `prune`: the ratio of summed cycles, as
 * driver::evaluateNetwork reports it. Both architectures, and every
 * call given the same `cache`, share its traces: each image's tensor
 * is synthesized once, and candidates that agree on a layer's
 * producer thresholds share its count map.
 */
double
canonicalSpeedup(const dadiannao::NodeConfig &cfg, const Network &net,
                 int images, std::uint64_t seed, const PruneConfig *prune,
                 timing::TraceCache &cache)
{
    const std::vector<const arch::ArchModel *> pair = arch::canonicalPair();
    std::uint64_t base = 0, cnvCycles = 0;
    sim::parallelMapReduce(
        static_cast<std::size_t>(images),
        [&](std::size_t i) {
            timing::RunOptions opts;
            opts.imageSeed = seed + static_cast<std::uint64_t>(i);
            opts.prune = prune;
            opts.cache = &cache;
            return std::pair<std::uint64_t, std::uint64_t>(
                pair[0]->simulateNetwork(cfg, net, opts).totalCycles(),
                pair[1]->simulateNetwork(cfg, net, opts).totalCycles());
        },
        [&](std::size_t, std::pair<std::uint64_t, std::uint64_t> &&r) {
            base += r.first;
            cnvCycles += r.second;
        });
    return static_cast<double>(base) / static_cast<double>(cnvCycles);
}

/** Seeded synthetic input image `i` of the accuracy study. */
nn::LiveSet
accuracyInput(const Network &net, std::uint64_t seed, std::size_t i)
{
    return net.start(nn::synthesizeImage(net.node(0).outShape, seed + i));
}

/**
 * Does the pruned run preserve the reference prediction? Top-1 must
 * match, and the logits must stay within `tolerance` relative L2
 * distortion. The distortion term keeps the proxy sensitive on deep
 * synthetic networks whose untrained argmax is weakly
 * input-dependent (a trained classifier with slightly distorted
 * logits very rarely changes its top-1); see DESIGN.md's accuracy
 * substitution.
 */
bool
predictionPreserved(const Reference &ref, const nn::ForwardResult &run,
                    double tolerance)
{
    if (run.top1 != ref.top1)
        return false;
    if (run.logits.shape() != ref.logits.shape())
        return false;
    double sq = 0.0;
    const Fixed16 *a = run.logits.data();
    const Fixed16 *b = ref.logits.data();
    for (std::size_t i = 0; i < ref.logits.size(); ++i) {
        const double d = a[i].toDouble() - b[i].toDouble();
        sq += d * d;
    }
    return std::sqrt(sq) <= tolerance * std::max(ref.norm, 1e-6);
}

/**
 * Fraction of the `images` for which `preserved(i)` holds; each
 * image's passes run on the pool.
 */
template <typename Preserved>
double
agreementFraction(std::size_t images, Preserved preserved)
{
    int agree = 0;
    sim::parallelMapReduce(images, preserved,
                           [&](std::size_t, bool kept) {
                               if (kept)
                                   ++agree;
                           });
    return static_cast<double>(agree) / static_cast<double>(images);
}

} // namespace

double
relativeAccuracy(const Network &net, const PruneConfig &cfg, int images,
                 std::uint64_t seed)
{
    CNV_ASSERT(images > 0, "need at least one accuracy image");
    // Up to and including the first conv layer `cfg` prunes, the
    // pruned pass is the reference pass; it resumes from there with
    // that layer's (pre-threshold) output in its live set.
    int cut = 1;
    for (int i = 0; i < net.convLayerCount(); ++i) {
        if (cfg.forConvIndex(static_cast<std::size_t>(i)) > 0) {
            cut = net.convNodeIds()[i] + 1;
            break;
        }
    }
    nn::ForwardOptions opts;
    opts.prune = &cfg;
    return agreementFraction(
        static_cast<std::size_t>(images), [&](std::size_t i) {
            return predictionPreserved(
                referenceOf(net, seed, i),
                net.forward(net.unprunedPrefix(seed + i, cut), opts), 0.05);
        });
}

std::vector<std::vector<int>>
thresholdGroups(const Network &net)
{
    std::vector<std::vector<int>> groups;
    std::vector<std::string> keys;
    for (int i = 0; i < net.convLayerCount(); ++i) {
        const std::string &name = net.node(net.convNodeIds()[i]).name;
        const std::string key = name.substr(0, name.find('/'));
        if (keys.empty() || keys.back() != key) {
            keys.push_back(key);
            groups.emplace_back();
        }
        groups.back().push_back(i);
    }
    return groups;
}

ExplorationPoint
searchLossless(const dadiannao::NodeConfig &cfg, const Network &fullNet,
               const Network &accNet, const SearchOptions &opts)
{
    CNV_ASSERT(fullNet.convLayerCount() == accNet.convLayerCount(),
               "accuracy network must mirror the full network's conv count");
    CNV_ASSERT(!opts.levels.empty(), "threshold ladder is empty");

    const int convs = fullNet.convLayerCount();
    const auto images = static_cast<std::size_t>(opts.accuracyImages);
    std::vector<nn::LiveSet> inputs(images);
    sim::parallelFor(images, [&](std::size_t i) {
        inputs[i] = accuracyInput(accNet, opts.seed, i);
    });

    const std::vector<std::vector<int>> groups = thresholdGroups(fullNet);

    PruneConfig current;
    current.thresholds.assign(convs, opts.levels.front());

    std::vector<nn::LiveSet> prefixes = inputs;
    auto accuracyOf = [&](const PruneConfig &candidate) {
        nn::ForwardOptions pruned;
        pruned.prune = &candidate;
        return agreementFraction(images, [&](std::size_t i) {
            return predictionPreserved(referenceOf(accNet, opts.seed, i),
                                       accNet.forward(prefixes[i], pruned),
                                       opts.distortionTolerance);
        });
    };

    // Greedy coordinate ascent: deeper layers tolerate larger
    // thresholds, so walk the ladder per group while the joint
    // configuration stays above the accuracy floor.
    for (const std::vector<int> &group : groups) {
        if (group.empty())
            continue;
        // While this group's thresholds move, every node before its
        // first conv layer keeps its inputs and thresholds: compute
        // that prefix once per image (from the last group's prefix
        // when it lies behind) and resume each candidate there.
        int cut = accNet.nodeCount();
        for (int layer : group)
            cut = std::min(cut, accNet.convNodeIds().at(layer));
        nn::ForwardOptions prefixOpts;
        prefixOpts.prune = &current;
        sim::parallelFor(prefixes.size(), [&](std::size_t i) {
            const nn::LiveSet &from =
                prefixes[i].cut <= cut ? prefixes[i] : inputs[i];
            prefixes[i] = accNet.advance(from, cut, prefixOpts);
        });

        std::size_t level = 0;
        while (level + 1 < opts.levels.size()) {
            PruneConfig candidate = current;
            for (int layer : group)
                candidate.thresholds[layer] = opts.levels[level + 1];
            if (accuracyOf(candidate) + 1e-12 < opts.accuracyFloor)
                break;
            current = candidate;
            ++level;
        }
    }

    ExplorationPoint point;
    point.config = current;
    point.relativeAccuracy = accuracyOf(current);
    timing::TraceCache cache;
    point.speedup = canonicalSpeedup(cfg, fullNet, opts.timingImages,
                                     opts.seed, &current, cache);
    return point;
}

std::vector<ExplorationPoint>
tradeoffSweep(const dadiannao::NodeConfig &cfg, const Network &fullNet,
              const Network &accNet, const SearchOptions &opts)
{
    const int convs = fullNet.convLayerCount();
    std::vector<PruneConfig> candidates;

    // Zero-skipping only (the leftmost point of Figure 14).
    candidates.emplace_back();

    // Uniform thresholds up the ladder.
    for (std::int32_t level : opts.levels) {
        if (level <= 0)
            continue;
        PruneConfig c;
        c.thresholds.assign(convs, level);
        candidates.push_back(std::move(c));
    }

    // Depth-ramped thresholds (deeper layers pruned harder), at
    // several intensities.
    for (double intensity : {0.5, 1.0, 2.0, 4.0}) {
        PruneConfig c;
        c.thresholds.resize(convs);
        for (int i = 0; i < convs; ++i) {
            const double frac = convs > 1
                ? static_cast<double>(i) / (convs - 1) : 0.0;
            const double raw = intensity * (2.0 + 30.0 * frac);
            // Round down to the nearest power of two (the hardware
            // exploration used power-of-two thresholds).
            std::int32_t pow2 = 1;
            while (pow2 * 2 <= raw)
                pow2 *= 2;
            c.thresholds[i] = raw < 1.0 ? 0 : pow2;
        }
        candidates.push_back(std::move(c));
    }

    std::vector<ExplorationPoint> points;
    points.reserve(candidates.size());
    timing::TraceCache cache;
    for (PruneConfig &c : candidates) {
        ExplorationPoint pt;
        pt.relativeAccuracy =
            relativeAccuracy(accNet, c, opts.accuracyImages, opts.seed);
        pt.speedup = canonicalSpeedup(cfg, fullNet, opts.timingImages,
                                      opts.seed, &c, cache);
        pt.config = std::move(c);
        points.push_back(std::move(pt));
    }
    std::sort(points.begin(), points.end(),
              [](const ExplorationPoint &a, const ExplorationPoint &b) {
                  return a.speedup < b.speedup;
              });
    return points;
}

std::vector<ExplorationPoint>
paretoFrontier(std::vector<ExplorationPoint> points)
{
    std::sort(points.begin(), points.end(),
              [](const ExplorationPoint &a, const ExplorationPoint &b) {
                  return a.speedup < b.speedup;
              });
    // Scan from the fastest point down: keep points whose accuracy
    // exceeds every faster point's accuracy.
    std::vector<ExplorationPoint> frontier;
    double best = -1.0;
    for (auto it = points.rbegin(); it != points.rend(); ++it) {
        if (it->relativeAccuracy > best) {
            best = it->relativeAccuracy;
            frontier.push_back(*it);
        }
    }
    std::reverse(frontier.begin(), frontier.end());
    return frontier;
}

} // namespace cnv::pruning
