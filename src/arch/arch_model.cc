#include "arch/arch_model.h"

#include <algorithm>
#include <utility>

#include "arch/registry.h"
#include "sim/logging.h"

namespace cnv::arch {

namespace {

/**
 * Nominal uniform pruning threshold for cnv-pruned runs without an
 * explicit PruneConfig: 16 raw Q7.8 units (0.0625), standing in for
 * the per-network lossless search (`cnvsim prune` finds the real
 * thresholds; pass a PruneConfig through RunOptions to use them).
 */
constexpr std::int32_t kDefaultPruneThreshold = 16;

} // namespace

ArchModel::ArchModel(std::string id, std::string displayName,
                     timing::Arch datapath, power::Scales scales,
                     int brickSize, bool defaultPrune)
    : id_(std::move(id)), displayName_(std::move(displayName)),
      datapath_(datapath), scales_(scales), brickSize_(brickSize),
      defaultPrune_(defaultPrune)
{
}

dadiannao::NodeConfig
ArchModel::nodeConfig(const dadiannao::NodeConfig &base) const
{
    dadiannao::NodeConfig cfg = base;
    if (brickSize_ > 0) {
        // One lane drains one brick slot, and NM banking follows
        // the lane count (bench_abl_brick_size's sweep geometry).
        cfg.brickSize = brickSize_;
        cfg.lanes = brickSize_;
        cfg.nmBanks = brickSize_;
    }
    return cfg;
}

dadiannao::NetworkResult
ArchModel::simulateNetwork(const dadiannao::NodeConfig &base,
                           const nn::Network &net,
                           const timing::RunOptions &opts) const
{
    const ArchModel *self = this;
    return std::move(simulateGroup({&self, 1}, base, net, opts)[0]);
}

bool
ArchModel::sharesWalk(const ArchModel &other,
                      const dadiannao::NodeConfig &base) const
{
    return datapath_ != timing::Arch::Baseline &&
           other.datapath_ != timing::Arch::Baseline &&
           defaultPrune_ == other.defaultPrune_ &&
           nodeConfig(base) == other.nodeConfig(base);
}

std::vector<dadiannao::NetworkResult>
ArchModel::simulateGroup(std::span<const ArchModel *const> models,
                         const dadiannao::NodeConfig &base,
                         const nn::Network &net,
                         const timing::RunOptions &opts)
{
    CNV_ASSERT(!models.empty(), "a walk group needs a model");
    const ArchModel &lead = *models.front();
    std::vector<timing::Arch> datapaths;
    for (const ArchModel *m : models) {
        if (m != &lead && !lead.sharesWalk(*m, base))
            CNV_FATAL("'{}' cannot share a walk with '{}'", m->id(),
                      lead.id());
        datapaths.push_back(m->datapath_);
    }
    timing::RunOptions run = opts;
    nn::PruneConfig defaults;
    if (lead.defaultPrune_ && run.prune == nullptr) {
        defaults.thresholds.assign(
            static_cast<std::size_t>(net.convLayerCount()),
            kDefaultPruneThreshold);
        run.prune = &defaults;
    }
    std::vector<dadiannao::NetworkResult> results = timing::simulateNetworks(
        lead.nodeConfig(base), net, datapaths, run);
    for (std::size_t i = 0; i < models.size(); ++i)
        results[i].architecture = models[i]->id();
    return results;
}

std::vector<std::vector<std::size_t>>
walkGroups(const std::vector<const ArchModel *> &models,
           const dadiannao::NodeConfig &base)
{
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < models.size(); ++i) {
        auto joins = [&](const std::vector<std::size_t> &g) {
            return models[g.front()]->sharesWalk(*models[i], base);
        };
        const auto it = std::find_if(groups.begin(), groups.end(), joins);
        if (it != groups.end())
            it->push_back(i);
        else
            groups.push_back({i});
    }
    return groups;
}

power::AreaBreakdown
ArchModel::area(const power::PowerParams &p) const
{
    return power::areaOf(scales_, p);
}

power::PowerBreakdown
ArchModel::power(const dadiannao::EnergyCounters &counters,
                 std::uint64_t cycles, const power::PowerParams &p) const
{
    return power::powerOf(scales_, counters, cycles, p);
}

power::RunMetrics
ArchModel::metrics(const dadiannao::EnergyCounters &counters,
                   std::uint64_t cycles, const power::PowerParams &p) const
{
    return power::metricsOf(scales_, counters, cycles, p);
}

ArchModel
makeCnvVariant(std::string id, std::string displayName, int brickSize)
{
    CNV_ASSERT(brickSize > 0, "CNV variant needs a positive brick size");
    return ArchModel(std::move(id), std::move(displayName),
                     timing::Arch::Cnv, power::kCnvScales, brickSize);
}

const ArchRegistry &
builtin()
{
    static const ArchRegistry registry = [] {
        ArchRegistry r;
        r.add({"dadiannao", "DaDianNao baseline", timing::Arch::Baseline});
        r.add({"cnv", "Cnvlutin", timing::Arch::Cnv, power::kCnvScales});
        r.add({"cnv2", "Cnvlutin2 (weight skipping, offset-only ZFNAf)",
               timing::Arch::Cnv2, power::kCnv2Scales});
        r.add({"cnv-pruned", "Cnvlutin + dynamic pruning",
               timing::Arch::Cnv, power::kCnvScales, /*brickSize=*/0,
               /*defaultPrune=*/true});
        for (int brick : {4, 8, 32})
            r.add(makeCnvVariant(sim::strfmt("cnv-b{}", brick),
                                 sim::strfmt("Cnvlutin ({}-neuron bricks)",
                                             brick),
                                 brick));
        return r;
    }();
    return registry;
}

std::vector<const ArchModel *>
canonicalPair()
{
    const ArchRegistry &r = builtin();
    return {&r.get("dadiannao"), &r.get("cnv")};
}

} // namespace cnv::arch
