/**
 * @file
 * Synthetic activation traces — the stand-in for running Caffe over
 * ImageNet images (see DESIGN.md substitutions).
 *
 * CNV's timing depends only on layer geometry and on how zeros are
 * distributed across ZFNAf bricks, so traces are synthesised
 * directly per conv-layer input with: (1) a calibrated zero
 * fraction, (2) per-channel firing-rate diversity (some learned
 * features fire rarely — this drives brick-to-brick imbalance and
 * hence CNV stall time), and (3) a low-frequency spatial field
 * (features appear in parts of an image, not everywhere). Each
 * "image" is a distinct seed.
 *
 * Synthesis runs in two stages per depth segment, each segment with
 * its own xoshiro stream. Stage 1 (synthesizeActivity /
 * synthesizeConvActivity) decides which neurons are non-zero. It
 * draws the segment's ActivityField from the stream (channel rates,
 * then the spatial grid), then one key; element i of the segment is
 * active iff output i of a SplitMix64 stream seeded by the key,
 * core::mix64(key + i * core::kGoldenGamma), falls below the element's
 * probability q. Stage 2 (synthesizeValues) gives each active element
 * i the magnitude magnitudeOfDraw(core::mix64(key2 + i * kGoldenGamma)),
 * key2 being drawn from a stream forked off the segment's stream:
 * an inverse-CDF draw of lround(clamp(exp(N(mu, sigma)), 1, 32767)).
 * In both stages each element is a pure function of its index, so no
 * state is carried from one element to the next. Count maps and zero
 * fractions, pruned or not, need no values (prunedMask).
 */

#ifndef CNV_NN_TRACE_H
#define CNV_NN_TRACE_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "nn/network.h"
#include "sim/rng.h"
#include "tensor/activity_mask.h"
#include "tensor/neuron_tensor.h"

namespace cnv::nn {

/** Statistical model of one layer-input activation tensor. */
struct SparsityModel
{
    /** Target fraction of exactly-zero neurons. */
    double zeroFraction = 0.44;
    /** Lognormal sigma of per-channel firing-rate multipliers. */
    double channelDispersion = 0.35;
    /** Lognormal sigma of the coarse spatial field. */
    double spatialDispersion = 0.30;
    /** Spatial field grid resolution (grid x grid control points). */
    int spatialGrid = 5;
};

/**
 * A depth range of a conv layer's input attributed to the node that
 * produced it (through pool/LRN/concat pass-throughs).
 */
struct TraceSegment
{
    int depth = 0;
    /** Producing conv layer's conv index; -1 for the raw image. */
    int producerConvIndex = -1;

    bool operator==(const TraceSegment &) const = default;
};

/** Decompose a conv node's input depth into producer segments. */
std::vector<TraceSegment> inputSegments(const Network &net, int convNodeId);

/**
 * Stage 1's per-element activity probability over one segment of
 * `depth` channels:
 * q(column, z) = min(1, spatial[column] * channelRate[z] * scale * active),
 * the three multiplies in that order, with `scale` normalising the
 * mean of q to `active` (up to clamping). Element (column, z) is
 * active iff its uniform draw in [0, 1) is below q; as the draw is
 * below 1, core::simd::bernoulliBlock compares it with the product
 * unclamped and sets the same bits.
 */
struct ActivityField
{
    /** Spatial factor of each (x, y) column, y-major. */
    std::vector<double> spatial;
    /** Firing-rate multiplier of each channel. */
    std::vector<double> channelRate;
    double scale = 1.0;
    /** Target active fraction, 1 - zeroFraction clamped to [0, 1]. */
    double active = 0.0;

    double
    q(std::size_t column, int z) const
    {
        return std::min(1.0, spatial[column] * channelRate[z] * scale *
                                 active);
    }
};

/**
 * Draw the ActivityField of a (width, height, depth) segment from
 * `rng`: `depth` channel-rate normals, then the spatial grid. Draws
 * nothing, and leaves the vectors empty, when `active` is 0 or 1.
 *
 * The spatial factors interpolate the grid bilinearly, with the x
 * positions worked out once, the x-interpolated grid rows once per
 * grid row and the y terms once per plane row. Four
 * passes fit `scale`; each sums the clamped q of every column in
 * column order from the sorted rates' prefix sums, galloping each
 * column's count of rates below 1 / (s * c) from the previous
 * column's and dividing only near a tie: O(XY log Z) per pass at
 * worst. The result is bit-equal to the direct per-column form
 * (tests/nn/test_field_oracle.cc).
 */
ActivityField drawActivityField(int width, int height, int depth,
                                const SparsityModel &model, sim::Rng &rng);

/**
 * The number of entries of ascending `sorted` below 1 / sc, as
 * std::lower_bound(sorted, 1.0 / sc) counts them (0 for a NaN sc),
 * galloped from the guess `k`: O(log d) compares when the count is
 * k +- d. An entry r is compared by r * sc, which decides exactly
 * unless it rounds to within 2^-50 of 1; only then does it divide.
 * That needs sc to be +0, positive or NaN, as every s * c is.
 * drawActivityField's passes call it once per column.
 */
std::size_t countBelowReciprocal(const std::vector<double> &sorted, double sc,
                                 std::size_t k);

/**
 * Stage-1 output: where a synthesized tensor is non-zero, plus what
 * stage 2 needs to draw each depth segment's values.
 */
struct Activity
{
    /** One depth range with its own stream, in depth order. */
    struct Segment
    {
        int depth = 0;
        /** Producing conv layer (-1: raw image); picks the prune
         *  threshold synthesizeValues applies. */
        int producerConvIndex = -1;
        /** Stage 2's key: the segment's element i (local index
         *  (y * X + x) * depth + z) has magnitude
         *  magnitudeOfDraw(core::mix64(magnitudes + i * kGoldenGamma))
         *  where it is active. */
        std::uint64_t magnitudes = 0;
    };

    /** Bit i set iff element i of the tensor is non-zero. */
    tensor::ActivityMask mask;
    std::vector<Segment> segments;
};

/**
 * Stage 1 of synthesizeActivations: the activity of a `shape` tensor
 * drawn from `model`, as one segment. Leaves `rng` where
 * synthesizeActivations would: past the field and the key.
 */
Activity synthesizeActivity(tensor::Shape3 shape, const SparsityModel &model,
                            sim::Rng &rng);

/**
 * Stage 1 of synthesizeConvInput: the activity of one conv layer's
 * input for one "image", one segment per inputSegments() entry.
 */
Activity synthesizeConvActivity(const Network &net, int convNodeId,
                                std::uint64_t imageSeed);

/**
 * The stored magnitude, in raw Q7.8 units, of the uniform 64-bit draw
 * `u`: the smallest k with u < 2^64 * P(v <= k), v being
 * lround(clamp(exp(N(mu, sigma)), 1, 32767)) with mean 96 raw units
 * (mu = log 96 - sigma^2 / 2) and sigma = 0.9. A table of the CDF up
 * to k = 4096, built on the first call, serves all but a ~2e-6 tail,
 * which is resolved by bisection on the analytic CDF.
 */
int magnitudeOfDraw(std::uint64_t u);

/**
 * The smallest draw u with magnitudeOfDraw(u) >= threshold (0 below 2,
 * none above 32767): the CDF step of threshold - 1 that
 * magnitudeOfDraw's table is built from, so no draw is misjudged.
 */
std::optional<std::uint64_t> magnitudeCutoff(std::int32_t threshold);

/**
 * The non-zeros of synthesizeValues(activity, prune) from the draws
 * alone: active element i of a segment pruned at t stays set iff
 * core::mix64(magnitudes + i * kGoldenGamma) >= magnitudeCutoff(t).
 */
tensor::ActivityMask prunedMask(const Activity &activity,
                                const PruneConfig *prune);

/**
 * Stage 2: the values of a stage-1 activity. With `prune`, each
 * conv-fed segment's values below its producer's threshold become
 * zero.
 */
tensor::NeuronTensor synthesizeValues(const Activity &activity,
                                      const PruneConfig *prune = nullptr);

/**
 * Synthesise an activation tensor with the model's statistics
 * (synthesizeValues of synthesizeActivity). Non-zero values are
 * strictly positive (post-ReLU data).
 */
tensor::NeuronTensor synthesizeActivations(tensor::Shape3 shape,
                                           const SparsityModel &model,
                                           sim::Rng &rng);

/**
 * Synthesise the input tensor of one conv layer for one "image".
 *
 * Segments fed by the raw image are dense; segments fed by earlier
 * conv layers use the consumer's calibrated inputZeroFraction, and
 * the producer's pruning threshold (if any) zeroes small values —
 * exactly what the encoder would have written to NM. Equal to
 * synthesizeValues(synthesizeConvActivity(...), prune).
 */
tensor::NeuronTensor synthesizeConvInput(const Network &net, int convNodeId,
                                         std::uint64_t imageSeed,
                                         const PruneConfig *prune = nullptr);

/**
 * Synthesise one input "image": positive values with a strong
 * per-image low-frequency structure, so that different seeds
 * genuinely excite different features and functional networks
 * produce varied top-1 predictions (needed by the accuracy study).
 */
tensor::NeuronTensor synthesizeImage(tensor::Shape3 shape,
                                     std::uint64_t seed);

/**
 * Measured fraction of conv multiplication operands that are zero
 * for one image (Figure 1's metric): MAC-weighted input zero
 * fraction across all conv layers, counted on prunedMask().
 */
double zeroOperandFraction(const Network &net, std::uint64_t imageSeed,
                           const PruneConfig *prune = nullptr);

} // namespace cnv::nn

#endif // CNV_NN_TRACE_H
