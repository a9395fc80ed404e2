#include "driver/driver.h"

#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "timing/network_model.h"

namespace cnv::driver {

const ArchAggregate *
NetworkReport::findArch(std::string_view id) const
{
    for (const ArchAggregate &a : archs)
        if (a.model != nullptr && a.model->id() == id)
            return &a;
    return nullptr;
}

const ArchAggregate &
NetworkReport::arch(std::string_view id) const
{
    const ArchAggregate *a = findArch(id);
    if (a == nullptr)
        CNV_FATAL("report for '{}' has no architecture '{}'", name,
                  std::string(id));
    return *a;
}

double
NetworkReport::speedupOf(std::string_view baseId,
                         std::string_view overId) const
{
    return static_cast<double>(arch(baseId).cycles) /
           static_cast<double>(arch(overId).cycles);
}

NetworkReport
evaluateNetworkArchs(const ExperimentConfig &cfg, const nn::Network &net,
                     const std::vector<const arch::ArchModel *> &archs,
                     const nn::PruneConfig *prune,
                     timing::TraceCache *cache,
                     std::vector<ArchTimeline> *timelines)
{
    CNV_ASSERT(!archs.empty(), "need at least one architecture");
    CNV_ASSERT(cfg.images > 0, "need at least one image");
    NetworkReport report;
    report.name = net.name();
    report.images = cfg.images;
    report.archs.resize(archs.size());
    for (std::size_t a = 0; a < archs.size(); ++a)
        report.archs[a].model = archs[a];
    if (timelines != nullptr)
        timelines->assign(archs.size(), {});

    // Without a caller-provided cache the runs still share one for
    // the duration of this sweep, so each image's trace is
    // synthesized once instead of once per architecture.
    timing::TraceCache localCache;
    timing::TraceCache *shared = cache != nullptr ? cache : &localCache;

    // Flattened (walk group x image) grid: the CNV-family archs
    // that share a walk run one image in lock-step as one task, the
    // baseline one task per image. The ordered commit reduces each
    // arch's runs in image order, as the old serial loop did.
    const std::vector<std::vector<std::size_t>> groups =
        arch::walkGroups(archs, cfg.node);
    const auto images = static_cast<std::size_t>(cfg.images);
    sim::metrics().beginProgress(net.name(), archs.size() * images);
    sim::parallelMapReduce(
        groups.size() * images,
        [&](std::size_t t) {
            std::vector<const arch::ArchModel *> models;
            for (const std::size_t a : groups[t / images])
                models.push_back(archs[a]);
            timing::RunOptions opts;
            opts.imageSeed =
                cfg.seed + static_cast<std::uint64_t>(t % images);
            opts.prune = prune;
            opts.cache = shared;
            opts.weightSparsity = cfg.weightSparsity;
            opts.memKind = cfg.memKind;
            auto runs = arch::ArchModel::simulateGroup(models, cfg.node,
                                                       net, opts);
            sim::metrics().tickProgress(models.size());
            return runs;
        },
        [&](std::size_t t, std::vector<dadiannao::NetworkResult> &&runs) {
            const std::vector<std::size_t> &group = groups[t / images];
            for (std::size_t k = 0; k < group.size(); ++k) {
                dadiannao::NetworkResult &run = runs[k];
                ArchAggregate &agg = report.archs[group[k]];
                agg.cycles += run.totalCycles();
                agg.activity += run.totalActivity();
                agg.energy += run.totalEnergy();
                if (run.memModelled) {
                    agg.mem += run.totalMem();
                    agg.memModelled = true;
                }
                if (timelines != nullptr && t % images == 0)
                    (*timelines)[group[k]] = {agg.model, std::move(run)};
            }
        });
    sim::metrics().endProgress();
    return report;
}

NetworkReport
evaluateNetwork(const ExperimentConfig &cfg, const nn::Network &net,
                const nn::PruneConfig *prune)
{
    return evaluateNetworkArchs(cfg, net, arch::canonicalPair(), prune);
}

NetworkReport
evaluateZooNetwork(const ExperimentConfig &cfg, nn::zoo::NetId id,
                   const nn::PruneConfig *prune)
{
    const auto net = nn::zoo::build(id, cfg.seed);
    return evaluateNetwork(cfg, *net, prune);
}

} // namespace cnv::driver
