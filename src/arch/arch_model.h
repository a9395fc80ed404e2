/**
 * @file
 * ArchModel: one architecture variant as a plain value. A model is a
 * stable id (the CLI key and report section name), a display name,
 * the conv datapath it runs (timing::Arch), its component area and
 * energy scales (power::Scales), an optional brick-size geometry
 * override and the cnv-pruned default-threshold flag — so the
 * driver, CLI, benches and reports can loop over N architectures
 * instead of hard-coding the baseline/CNV pair. Variants are looked
 * up through the ArchRegistry (arch/registry.h); the timing::Arch
 * enum stays private to src/timing and this module (enforced by
 * tools/cnvlint.py's arch-dispatch rule).
 */

#ifndef CNV_ARCH_ARCH_MODEL_H
#define CNV_ARCH_ARCH_MODEL_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "nn/network.h"
#include "power/model.h"
#include "timing/network_model.h"

namespace cnv::arch {

/**
 * One architecture variant. Its members wrap the closed-form timing
 * models and the calibrated power model; the driver and CLI only
 * ever see this type (plus the registry), so adding a variant is one
 * registry entry and touches no downstream code.
 */
class ArchModel
{
  public:
    /**
     * @param datapath Which conv timing model runs.
     * @param scales Component area/energy scales (default: baseline).
     * @param brickSize Brick = lanes = NM banks override; 0 inherits
     *        the base configuration.
     * @param defaultPrune Apply nominal uniform pruning thresholds
     *        when a run supplies no PruneConfig (cnv-pruned).
     */
    ArchModel(std::string id, std::string displayName,
              timing::Arch datapath, power::Scales scales = {},
              int brickSize = 0, bool defaultPrune = false);

    /** Stable registry id: CLI `--arch` key and report section name. */
    const std::string &id() const { return id_; }

    /** Human-readable name for tables and logs. */
    const std::string &displayName() const { return displayName_; }

    /**
     * This variant's node geometry, derived from a base
     * configuration: a brick-size override sets brick size, lane
     * count and NM banking; otherwise the base is returned unchanged.
     */
    dadiannao::NodeConfig nodeConfig(const dadiannao::NodeConfig &base) const;

    /**
     * Run one image trace through the network on this architecture.
     * Applies nodeConfig() to `base` first (timing::simulateNetwork
     * validates the result); the result's architecture field carries
     * id().
     */
    dadiannao::NetworkResult
    simulateNetwork(const dadiannao::NodeConfig &base, const nn::Network &net,
                    const timing::RunOptions &opts) const;

    /**
     * Whether this model and `other` can run one encoded walk
     * together under `base`: both run the encoded (CNV-family)
     * datapath on the same nodeConfig(base) with the same
     * default-prune flag, so they read the same count maps, gather
     * the same window groups and issue the same NM fetch runs.
     */
    bool sharesWalk(const ArchModel &other,
                    const dadiannao::NodeConfig &base) const;

    /**
     * Run one image through a walk group in one lock-step pass
     * (timing::simulateNetworks): result i equals
     * models[i]->simulateNetwork(base, net, opts). Every model must
     * share a walk with the first; fatal otherwise.
     */
    static std::vector<dadiannao::NetworkResult>
    simulateGroup(std::span<const ArchModel *const> models,
                  const dadiannao::NodeConfig &base, const nn::Network &net,
                  const timing::RunOptions &opts);

    /** Component area breakdown for this architecture (Figure 11). */
    power::AreaBreakdown area(const power::PowerParams &p = {}) const;

    /** Average power over a run (Figure 12). */
    power::PowerBreakdown
    power(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
          const power::PowerParams &p = {}) const;

    /** Delay, energy, EDP, ED^2P for a run (Figure 13). */
    power::RunMetrics
    metrics(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
            const power::PowerParams &p = {}) const;

  private:
    std::string id_;
    std::string displayName_;
    timing::Arch datapath_;
    power::Scales scales_;
    int brickSize_;
    bool defaultPrune_;
};

/**
 * Partition a selection into walk groups (ArchModel::sharesWalk): the
 * models that share a walk with a group's first member join it, and
 * every other model starts a group of its own, so the baseline is
 * always alone. Groups are in order of their first member, and each
 * lists its members' selection indices in selection order.
 */
std::vector<std::vector<std::size_t>>
walkGroups(const std::vector<const ArchModel *> &models,
           const dadiannao::NodeConfig &base);

} // namespace cnv::arch

#endif // CNV_ARCH_ARCH_MODEL_H
