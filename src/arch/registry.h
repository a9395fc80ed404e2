/**
 * @file
 * ArchRegistry: the name -> ArchModel table behind `cnvsim archs`,
 * `cnvsim run --arch a,b,...` and the N-way driver loops. The
 * built-in registry carries the paper's comparison set — dadiannao,
 * cnv, cnv-pruned — plus parameterized CNV geometry variants
 * (brick size / lane count, the knobs the ablation benches sweep).
 * Registration order is stable and is the iteration order
 * everywhere (tables, reports, `cnvsim archs`).
 */

#ifndef CNV_ARCH_REGISTRY_H
#define CNV_ARCH_REGISTRY_H

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "arch/arch_model.h"

namespace cnv::arch {

/**
 * An ordered, name-keyed collection of architecture models, stored
 * by value in a deque so the pointers find/get/select hand out stay
 * valid across later add() calls. Lookups are by stable id; unknown
 * ids are fatal with the known set in the message so CLI users see
 * their options.
 */
class ArchRegistry
{
  public:
    /** Register a model; fatal on a duplicate or empty id. */
    void add(ArchModel model);

    /** The model with this id, or nullptr when unknown. */
    const ArchModel *find(std::string_view id) const;

    /** The model with this id; fatal (listing known ids) if absent. */
    const ArchModel &get(std::string_view id) const;

    /** All models in registration order. */
    const std::deque<ArchModel> &models() const { return models_; }

    /** Registered ids, in registration order. */
    std::vector<std::string> ids() const;

    /** Comma-separated id list for diagnostics and usage text. */
    std::string describeIds() const;

    /**
     * Resolve a comma-separated id list ("dadiannao,cnv,...") into
     * models, preserving the selection order. Fatal on an unknown
     * or duplicate selection, or an empty list.
     */
    std::vector<const ArchModel *> select(std::string_view csv) const;

  private:
    std::deque<ArchModel> models_;
};

/**
 * The built-in registry: dadiannao, cnv, cnv2 (Cnvlutin2:
 * ineffectual-weight skipping + offset-only ZFNAf), cnv-pruned, and
 * the cnv-b4/cnv-b8/cnv-b32 brick-size variants (lane count and NM
 * banking scale with the brick, as in bench_abl_brick_size). Every
 * id here has a reference section in docs/architectures.md
 * (enforced by the arch_docs_coverage CTest).
 */
const ArchRegistry &builtin();

/**
 * The canonical dadiannao + cnv pair every two-architecture report
 * and legacy entry point compares (in that order).
 */
std::vector<const ArchModel *> canonicalPair();

/**
 * Factory for a parameterized CNV geometry variant. Brick size sets
 * the skip granularity; lanes is the neuron-lane count per unit
 * (one lane drains one brick slot, so it must equal brickSize); NM
 * banking follows the lane count. Registered ids use the form
 * "cnv-b<brick>".
 */
ArchModel makeCnvVariant(std::string id, std::string displayName,
                         int brickSize);

} // namespace cnv::arch

#endif // CNV_ARCH_REGISTRY_H
