/**
 * @file
 * Experiment driver: the orchestration layer shared by the bench
 * binaries and examples. Builds zoo networks, runs image batches on
 * any set of registered architecture models (arch/registry.h), and
 * aggregates cycles / activity / energy into per-network,
 * per-architecture reports.
 */

#ifndef CNV_DRIVER_DRIVER_H
#define CNV_DRIVER_DRIVER_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/registry.h"
#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "mem/memory_model.h"
#include "nn/network.h"
#include "nn/zoo/zoo.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

namespace cnv::driver {

/** Common experiment parameters. */
struct ExperimentConfig
{
    dadiannao::NodeConfig node;
    /** Images (trace seeds) per network for timing experiments. */
    int images = 4;
    /** Root seed. */
    std::uint64_t seed = 2016;
    /** Reduction factor for accuracy-study network variants. */
    int accuracyScale = 8;
    /** Cnv2 weight-sparsity knob (timing::RunOptions::weightSparsity);
     *  ignored by architectures without weight skipping. */
    double weightSparsity = timing::kDefaultWeightSparsity;
    /** Memory-hierarchy model (`--mem`): Ideal keeps pre-mem
     *  reports byte-identical, Banked simulates NM banking, the
     *  global buffer and the DRAM channel. */
    mem::Kind memKind = mem::Kind::Ideal;
};

/** One architecture's aggregate over a network's image batch. */
struct ArchAggregate
{
    /** The model that produced these numbers (registry-owned). */
    const arch::ArchModel *model = nullptr;
    std::uint64_t cycles = 0; ///< summed over images
    dadiannao::Activity activity;
    dadiannao::EnergyCounters energy;
    /** Memory-hierarchy counters summed over images (`--mem banked`
     *  runs only; all zero with memModelled false otherwise). */
    mem::Counters mem;
    bool memModelled = false;

    const std::string &id() const { return model->id(); }
};

/**
 * Aggregated results for one network, keyed by architecture in
 * selection order. The canonical comparison (the paper's headline
 * speedup) is dadiannao over cnv; reports covering other selections
 * use speedupOf() with explicit ids.
 */
struct NetworkReport
{
    std::string name;
    int images = 0;
    /** Per-architecture aggregates, in selection order. */
    std::vector<ArchAggregate> archs;

    /** The aggregate for an architecture id, or nullptr. */
    const ArchAggregate *findArch(std::string_view id) const;

    /** The aggregate for an architecture id; fatal when absent. */
    const ArchAggregate &arch(std::string_view id) const;

    /** Cycle ratio of `baseId` over `overId` (execution-time gain). */
    double speedupOf(std::string_view baseId, std::string_view overId) const;

    /** The canonical dadiannao-over-cnv speedup. */
    double
    speedup() const
    {
        return speedupOf("dadiannao", "cnv");
    }
};

/** One architecture's single-image (seed = cfg.seed) run. */
struct ArchTimeline
{
    /** The model that produced the timeline (registry-owned). */
    const arch::ArchModel *model = nullptr;
    /** Per-layer results of the run. */
    dadiannao::NetworkResult result;
};

/**
 * Run `cfg.images` traces of a network through every selected
 * architecture model (optionally with dynamic pruning; the models
 * decide whether to honour it). The (walk group x image) grid fans
 * out over sim::globalPool(): the archs of one walk group
 * (arch::walkGroups) run each image as one lock-step task, and
 * aggregates commit per arch in image order, so the report is
 * bit-identical for every job count and every grouping. Runs share
 * `cache` when given (one synthesized trace per image across all
 * architectures); a local cache is used otherwise. When `timelines`
 * is given it receives each architecture's image-0 run (seed =
 * cfg.seed) in selection order, so callers that need per-layer
 * timelines get them from the same pass instead of simulating again.
 */
NetworkReport evaluateNetworkArchs(
    const ExperimentConfig &cfg, const nn::Network &net,
    const std::vector<const arch::ArchModel *> &archs,
    const nn::PruneConfig *prune = nullptr,
    timing::TraceCache *cache = nullptr,
    std::vector<ArchTimeline> *timelines = nullptr);

/**
 * Run a network through the canonical dadiannao + cnv pair (the
 * two-architecture comparison every paper figure reports).
 */
NetworkReport evaluateNetwork(const ExperimentConfig &cfg,
                              const nn::Network &net,
                              const nn::PruneConfig *prune = nullptr);

/** Build + evaluate one zoo network on the canonical pair. */
NetworkReport evaluateZooNetwork(const ExperimentConfig &cfg,
                                 nn::zoo::NetId id,
                                 const nn::PruneConfig *prune = nullptr);

} // namespace cnv::driver

#endif // CNV_DRIVER_DRIVER_H
