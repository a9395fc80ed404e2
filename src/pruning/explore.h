/**
 * @file
 * Dynamic-pruning threshold exploration (Section V-E).
 *
 * CNV can prune "near zero" neurons by zeroing values below a
 * per-layer threshold at the encoder (the max-pooling comparators
 * are reused for the comparison). This module searches power-of-two
 * per-layer thresholds for the largest speedup at no accuracy loss
 * (Table II) and sweeps the accuracy/speedup trade-off (Figure 14).
 *
 * Accuracy substitution (see DESIGN.md): with no trained ImageNet
 * weights, "relative accuracy" is the fraction of synthetic inputs
 * whose top-1 class under pruning matches the unpruned network's
 * top-1, measured on a structure-identical reduced-scale variant of
 * the network (the full-scale geometry is still used for speedup).
 */

#ifndef CNV_PRUNING_EXPLORE_H
#define CNV_PRUNING_EXPLORE_H

#include <cstdint>
#include <vector>

#include "dadiannao/config.h"
#include "nn/network.h"

namespace cnv::pruning {

/** One evaluated threshold configuration. */
struct ExplorationPoint
{
    nn::PruneConfig config;
    double speedup = 1.0;           ///< CNV+pruning vs baseline
    double relativeAccuracy = 1.0;  ///< top-1 agreement with unpruned
};

/** Search options. */
struct SearchOptions
{
    /** Power-of-two threshold ladder (raw fixed-point units). */
    // cnvlint: allow(magic-16) — Table II threshold data, not geometry
    std::vector<std::int32_t> levels = {0, 2, 4, 8, 16, 32, 64, 128, 256};
    /** Images for accuracy evaluation. */
    int accuracyImages = 12;
    /** Images for speedup evaluation (full geometry traces). */
    int timingImages = 1;
    /** Accuracy floor; 1.0 = lossless (no top-1 changes). */
    double accuracyFloor = 1.0;
    /**
     * Relative logit-distortion a run may show and still count as
     * "prediction preserved" (DESIGN.md §2). Lossless searches keep
     * the tight default; budgeted searches (accuracyFloor < 1)
     * should widen it in proportion to the allowed loss.
     */
    double distortionTolerance = 0.05;
    /** Seed for evaluation inputs. */
    std::uint64_t seed = 99;
};

/**
 * Default threshold groups: conv layers grouped by the name prefix
 * before '/' (one group per inception module / auxiliary head for
 * google, one group per layer elsewhere).
 */
std::vector<std::vector<int>> thresholdGroups(const nn::Network &net);

/**
 * Relative accuracy of a pruning configuration: top-1 agreement
 * between the pruned and unpruned functional network over seeded
 * inputs. The network must be calibrated. The unpruned predictions
 * come from Network::reference, so repeated calls on one network
 * run only the pruned passes.
 */
double relativeAccuracy(const nn::Network &net, const nn::PruneConfig &cfg,
                        int images, std::uint64_t seed);

/**
 * Greedy per-layer threshold search (the paper's gradient-descent
 * style exploration): for each conv layer in turn, raise its
 * threshold up the ladder while joint accuracy stays at or above
 * the floor. Raising a threshold only ever increases speedup, so
 * the accuracy floor is the binding constraint.
 *
 * @param cfg Node configuration for the timing evaluation.
 * @param fullNet Full-scale network (timing geometry).
 * @param accNet Reduced-scale calibrated variant (accuracy); must
 *        have the same conv layer count as fullNet.
 */
ExplorationPoint searchLossless(const dadiannao::NodeConfig &cfg,
                                const nn::Network &fullNet,
                                const nn::Network &accNet,
                                const SearchOptions &opts);

/**
 * Accuracy/speedup sweep for Figure 14: evaluates uniform threshold
 * configurations plus scaled variants of the lossless configuration
 * and returns all points sorted by speedup. The candidates' timing
 * runs share one trace cache, so each image's traces are synthesized
 * once for the whole sweep.
 */
std::vector<ExplorationPoint> tradeoffSweep(const dadiannao::NodeConfig &cfg,
                                            const nn::Network &fullNet,
                                            const nn::Network &accNet,
                                            const SearchOptions &opts);

/** Pareto frontier (max accuracy for any speedup) of a point set. */
std::vector<ExplorationPoint>
paretoFrontier(std::vector<ExplorationPoint> points);

} // namespace cnv::pruning

#endif // CNV_PRUNING_EXPLORE_H
