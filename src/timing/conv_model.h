/**
 * @file
 * Closed-form per-layer timing/activity models for both
 * architectures.
 *
 * These consume only layer geometry plus a per-brick non-zero count
 * map of the layer's input, and produce exactly the same cycle
 * counts, activity events, and energy counters as the cycle-level
 * models in ref/baseline_nfu.* and ref/cnv_unit.* (property tests enforce
 * bit-exact agreement on randomized layers). They exist so that
 * full-network experiments and pruning sweeps run in seconds
 * instead of hours; every experiment can be spot-checked against
 * the detailed models.
 *
 * convCnv and convCnv2 are one-sink calls of one encoded walk,
 * convEncoded (CNV is Cnvlutin2 with no weight brick pruned). It
 * rests on one lane identity: under every LaneAssignment, brick b of
 * cell x in input row y runs on lane (phi + b + psi) % lanes, where
 * phi is dadiannao::laneOf(x, y, brick base, x * bricks per cell) and
 * psi is cursor - xa * bricks per cell under a policy whose lanes
 * follow the cursor (dadiannao::followsCursor: WindowEven; cursor:
 * the bricks its window group fetched before the window row, xa: the
 * row's first column) and 0 under the static assignments. A walk
 * takes one of two routes:
 *
 *   - No sink skips weight bricks (CNV, Cnvlutin2 at sparsity 0):
 *     every pass has one lane profile, and it is read off per-row
 *     prefix sums. Entry x of input row y holds the costs of the cells
 *     left of x summed per lane, twice over so that a rotation by psi
 *     is an offset load, and their non-zero count. A window row
 *     [xa, xb) adds entry xb less entry xa to its group's lane sums,
 *     held in registers (core::simd::LaneSums) until the group's
 *     busiest lane and lane total are taken; its fetch count is
 *     (xb - xa) x bricks per cell. A ring holds the input rows one
 *     window group reads, each built on first use, so the scratch
 *     stays a few rows whatever the layer. This route walks a conv
 *     group in one pass and returns one filter pass's totals, which
 *     every filter pass of every sink adds.
 *   - Some sink skips weight bricks: which bricks a pass skips changes
 *     with every tap and filter pass, so prefix sums over cells cannot
 *     hold them. The walk gathers each window group once, into a byte
 *     stream of brick counts whose position j runs on lane j % lanes
 *     (a cell starts at the next position on lane rot, positions it
 *     skips cost nothing), and folds that stream for every filter
 *     pass and every sink; a pass reads which weight bricks its filter
 *     group prunes from a per-sink table gathered the same way.
 *
 * On both routes a cell is one mem::Run (consecutive addresses on
 * consecutive lanes), built only when a sink is banked on the prefix
 * route, and the banked GB/bank replay of a (group, pass) runs once
 * and is charged to every sink's memory model.
 * tests/analysis/reference_cnv2.h keeps the per-brick, per-pass walk
 * as the oracle all three are tested against.
 */

#ifndef CNV_TIMING_CONV_MODEL_H
#define CNV_TIMING_CONV_MODEL_H

#include <cstdint>
#include <span>
#include <vector>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "mem/memory_model.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace cnv::timing {

/**
 * Per-brick non-zero counts of a layer input (x, y, depth-brick); a
 * count is at most the brick size, so below 0x80 (lanes <= 64).
 */
using CountMap = tensor::Tensor3<std::uint8_t>;

/**
 * Baseline (DaDianNao) conv layer timing.
 *
 * @param cfg Node configuration.
 * @param p Conv parameters.
 * @param inShape Input array shape.
 * @param counts Per-brick non-zero counts of the input.
 * @param isConv1 Account all processing as the conv1 category.
 * @param mem Optional memory model every NM access is issued
 *        against; nullptr (the ideal hierarchy) keeps the result
 *        bit-identical to a model-free run.
 */
dadiannao::LayerResult convBaseline(const dadiannao::NodeConfig &cfg,
                                    const nn::ConvParams &p,
                                    const tensor::Shape3 &inShape,
                                    const CountMap &counts, bool isConv1,
                                    mem::MemoryModel *mem = nullptr);

/** CNV conv layer timing in encoded (zero-skipping) mode. */
dadiannao::LayerResult convCnv(const dadiannao::NodeConfig &cfg,
                               const nn::ConvParams &p,
                               const tensor::Shape3 &inShape,
                               const CountMap &counts,
                               mem::MemoryModel *mem = nullptr);

/**
 * Cnvlutin2 conv layer timing: encoded mode with ineffectual-weight
 * skipping on top of CNV's zero-activation skipping (arXiv
 * 1705.00125). A lane advances past an (activation brick, weight
 * brick) pair when either side is ineffectual: empty activation
 * bricks cost what they cost under CNV, and activation bricks whose
 * matching weight brick is ineffectual for the whole in-flight
 * filter group are stepped past in the same single dispatcher slot
 * (the NM fetch still happens; only the serialised multiply-cycles
 * disappear). Which weight bricks are ineffectual is a deterministic
 * hash of (conv layer, kernel position, depth brick, filter pass) at
 * rate `weightSparsity` — a stand-in for the static post-pruning
 * schedule the paper compiles offline. With weightSparsity == 0 the
 * result is bit-identical to convCnv.
 *
 * @param convIndex The layer's conv index (hash seed component).
 * @param weightSparsity Ineffectual weight-brick fraction in [0, 1].
 */
dadiannao::LayerResult convCnv2(const dadiannao::NodeConfig &cfg,
                                const nn::ConvParams &p,
                                const tensor::Shape3 &inShape,
                                const CountMap &counts, int convIndex,
                                double weightSparsity,
                                mem::MemoryModel *mem = nullptr);

/**
 * One consumer of a shared encoded walk: a Cnvlutin2 weight sparsity
 * (0 is CNV) and the memory model its NM fetches are charged to
 * (nullptr: the ideal hierarchy).
 */
struct EncodedSink
{
    double weightSparsity = 0.0;
    mem::MemoryModel *mem = nullptr;
};

/**
 * The encoded walk behind convCnv and convCnv2, run once for several
 * sinks: each window group is gathered once, and each sink folds its
 * own lane profiles from it. Result i equals convCnv2(cfg, p,
 * inShape, counts, convIndex, sinks[i].weightSparsity, sinks[i].mem)
 * but for the name, which is left empty.
 *
 * The fetch runs depend only on positions, bricks and window order,
 * never on weights, so each (group, pass) is replayed once through
 * the first banked sink's model and charged to every banked sink.
 * Their models must share one geometry and enter holding the same
 * GB lines, e.g. all drained at the same layer boundary.
 */
std::vector<dadiannao::LayerResult>
convEncoded(const dadiannao::NodeConfig &cfg, const nn::ConvParams &p,
            const tensor::Shape3 &inShape, const CountMap &counts,
            int convIndex, std::span<const EncodedSink> sinks);

} // namespace cnv::timing

#endif // CNV_TIMING_CONV_MODEL_H
