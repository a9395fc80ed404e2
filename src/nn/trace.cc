#include "nn/trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>
#include <numeric>

#include "core/simd.h"
#include "sim/logging.h"

namespace cnv::nn {

using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

namespace {

/** Bilinearly interpolated lognormal field over the (x, y) plane. */
class SpatialField
{
  public:
    SpatialField(int grid, double sigma, sim::Rng &rng) : grid_(grid)
    {
        values_.resize(static_cast<std::size_t>(grid) * grid);
        for (double &v : values_)
            v = std::exp(rng.normal(0.0, sigma));
    }

    /**
     * Call f(value) for each column (x, y) of a width x height plane,
     * y-major. Column (x, y) maps to (u, v) in [0, 1]^2 (0.5
     * along an axis of length 1), then onto the control grid; its
     * value interpolates along x on the two grid rows around it, then
     * along y. The x positions are worked out once, the two
     * x-interpolated grid rows once per grid row, and the y terms once
     * per plane row.
     */
    template <typename F>
    void
    forEachColumn(int width, int height, F &&f) const
    {
        const auto w = static_cast<std::size_t>(width);
        std::vector<int> x0(w);
        std::vector<double> fx(w);
        for (int x = 0; x < width; ++x) {
            const double u =
                width > 1 ? static_cast<double>(x) / (width - 1) : 0.5;
            const double gx = u * (grid_ - 1);
            x0[x] = std::min(static_cast<int>(gx), grid_ - 2);
            fx[x] = gx - x0[x];
        }
        // The x-interpolated field on grid rows y0 and y0 + 1.
        std::vector<double> a(w);
        std::vector<double> b(w);
        int rowsAt = -1;
        for (int y = 0; y < height; ++y) {
            const double v =
                height > 1 ? static_cast<double>(y) / (height - 1) : 0.5;
            const double gy = v * (grid_ - 1);
            const int y0 = std::min(static_cast<int>(gy), grid_ - 2);
            const double fy = gy - y0;
            if (y0 != rowsAt) {
                for (int x = 0; x < width; ++x) {
                    a[x] = cell(x0[x], y0) * (1 - fx[x]) +
                           cell(x0[x] + 1, y0) * fx[x];
                    b[x] = cell(x0[x], y0 + 1) * (1 - fx[x]) +
                           cell(x0[x] + 1, y0 + 1) * fx[x];
                }
                rowsAt = y0;
            }
            for (int x = 0; x < width; ++x)
                f(a[x] * (1 - fy) + b[x] * fy);
        }
    }

  private:
    double cell(int x, int y) const { return values_[y * grid_ + x]; }

    int grid_;
    std::vector<double> values_;
};

/** Linear index of (x, y, z) in `shape`'s depth-fastest order. */
std::size_t
columnBase(const Shape3 &shape, int x, int y)
{
    return (static_cast<std::size_t>(y) * shape.x + x) *
           static_cast<std::size_t>(shape.z);
}

/** fork() id of the stream a segment's magnitude key is drawn from. */
constexpr std::uint64_t kMagnitudeStream = 1;

/** Mean non-zero magnitude in raw Q7.8 units, and its lognormal
 *  sigma. */
constexpr double kValueScaleRaw = 96.0;
constexpr double kValueSigma = 0.9;
/** Largest stored magnitude (the clamp's upper bound). */
constexpr int kMaxMagnitude = 32767;

/**
 * 2^64 * P(v <= k) for the stored magnitude
 * v = lround(clamp(exp(N(mu, sigma)), 1, 32767)), rounded, for
 * 1 <= k < 32767: v <= k iff exp(N) < k + 0.5. Each side of the
 * median is taken from its own small tail, so no precision is lost
 * to 1 - p.
 */
std::uint64_t
magnitudeThreshold(int k)
{
    const double mu =
        std::log(kValueScaleRaw) - 0.5 * kValueSigma * kValueSigma;
    const double t =
        (std::log(k + 0.5) - mu) / (kValueSigma * std::numbers::sqrt2);
    if (t < 0.0)
        return static_cast<std::uint64_t>(
            std::round(std::ldexp(0.5 * std::erfc(-t), 64)));
    // 2^64 minus the upper tail, modulo 2^64.
    return std::uint64_t{0} -
           static_cast<std::uint64_t>(
               std::round(std::ldexp(0.5 * std::erfc(t), 64)));
}

/**
 * The quantised CDF of the stored magnitude for k <= kTableMax, as
 * 64-bit thresholds, plus a guide table over the top bits of a draw.
 * Built once per process, on the first stage-2 draw.
 */
class MagnitudeTable
{
  public:
    MagnitudeTable()
    {
        for (int k = 1; k <= kTableMax; ++k)
            thresholds_[k - 1] = magnitudeThreshold(k);
        std::size_t j = 0;
        for (std::size_t b = 0; b < guide_.size(); ++b) {
            const std::uint64_t lo = std::uint64_t{b} << (64 - kGuideBits);
            while (j < thresholds_.size() && thresholds_[j] <= lo)
                ++j;
            guide_[b] = static_cast<std::uint16_t>(j);
        }
    }

    /** The smallest k with u < 2^64 * P(v <= k). */
    int
    draw(std::uint64_t u) const
    {
        if (u >= thresholds_.back()) [[unlikely]]
            return drawTail(u);
        // Every threshold below guide_[b] is <= u; the scan ends at
        // the first one above u, which exists since u < back().
        std::size_t j = guide_[u >> (64 - kGuideBits)];
        while (u >= thresholds_[j])
            ++j;
        return static_cast<int>(j) + 1;
    }

  private:
    static constexpr int kTableMax = 4096;
    static constexpr int kGuideBits = 12;

    /** Bisection on the analytic CDF above the table (p ~ 2e-6). */
    static int
    drawTail(std::uint64_t u)
    {
        int lo = kTableMax;    // magnitudeThreshold(lo) <= u
        int hi = kMaxMagnitude; // P(v <= 32767) = 1 > u / 2^64
        while (hi - lo > 1) {
            const int mid = lo + (hi - lo) / 2;
            (u < magnitudeThreshold(mid) ? hi : lo) = mid;
        }
        return hi;
    }

    std::array<std::uint64_t, kTableMax> thresholds_{};
    std::array<std::uint16_t, std::size_t{1} << kGuideBits> guide_{};
};

const MagnitudeTable &
magnitudeTable()
{
    static const MagnitudeTable table;
    return table;
}

/**
 * Stage 1 for one segment: draw the field of a (mask.x, mask.y,
 * depth) activation tensor whose depth range starts at `zBase` of
 * `mask`, then set its active bits 64 at a time: all of them when
 * the segment is dense, else by counter-based draws.
 */
Activity::Segment
drawActivity(int depth, int zBase, const SparsityModel &model,
             sim::Rng &rng, tensor::ActivityMask &mask)
{
    const Shape3 shape = mask.shape();
    const ActivityField field =
        drawActivityField(shape.x, shape.y, depth, model, rng);
    const bool sampled = field.active > 0.0 && field.active < 1.0;
    const std::uint64_t key = sampled ? rng.next() : 0;
    std::size_t column = 0;
    // A segment at zero fraction 1 sets no bit.
    for (int y = 0; field.active > 0.0 && y < shape.y; ++y) {
        for (int x = 0; x < shape.x; ++x, ++column) {
            const std::size_t base = columnBase(shape, x, y) + zBase;
            for (int z0 = 0; z0 < depth; z0 += 64) {
                const int n = std::min(64, depth - z0);
                const std::uint64_t bits =
                    sampled ? core::simd::bernoulliBlock(
                                  key + (column * depth + z0) *
                                            core::kGoldenGamma,
                                  n, field.spatial[column],
                                  field.channelRate.data() + z0,
                                  field.scale, field.active)
                            : ~std::uint64_t{0} >> (64 - n);
                mask.setBits(base + z0, bits);
            }
        }
    }
    return {depth, -1, rng.fork(kMagnitudeStream).next()};
}

/**
 * Call f(at, key, bits) for each word of one segment's mask, whose
 * depth range starts at `zBase` of `mask`: `bits` marks the active
 * ones among up to 64 elements along a column, the first at index `at`
 * of the tensor, and element j's magnitude draw is output j of the
 * SplitMix64 stream at `key`.
 */
template <typename F>
void
forEachWord(const Activity::Segment &seg, int zBase,
            const tensor::ActivityMask &mask, F &&f)
{
    const Shape3 shape = mask.shape();
    std::size_t column = 0;
    for (int y = 0; y < shape.y; ++y) {
        for (int x = 0; x < shape.x; ++x, ++column) {
            const std::size_t base = columnBase(shape, x, y) + zBase;
            for (int z0 = 0; z0 < seg.depth; z0 += 64)
                f(base + z0,
                  seg.magnitudes +
                      (column * seg.depth + z0) * core::kGoldenGamma,
                  mask.bits(base + z0, std::min(64, seg.depth - z0)));
        }
    }
}

// The per-word loops below run out of line: inlined, they spill.

/**
 * Stage 2 for one word: write the magnitudes of its active elements
 * into `out` (zero-initialised), lowest set bit first, zeroing those
 * below `threshold`.
 */
[[gnu::noinline]] void
drawWord(const MagnitudeTable &table, std::uint64_t key, std::uint64_t bits,
         std::int32_t threshold, Fixed16 *out)
{
    for (; bits != 0; bits &= bits - 1) {
        const auto j = static_cast<std::uint64_t>(std::countr_zero(bits));
        const int v = table.draw(core::mix64(key + j * core::kGoldenGamma));
        if (v >= threshold)
            out[j] = Fixed16::fromRaw(static_cast<std::int16_t>(v));
    }
}

/** The set bits j of one word whose draw is at least `cutoff`. */
[[gnu::noinline]] std::uint64_t
keptDraws(std::uint64_t key, std::uint64_t bits, std::uint64_t cutoff)
{
    if (cutoff == 0)
        return bits;
    std::uint64_t kept = 0;
    for (; bits != 0; bits &= bits - 1) {
        const auto j = static_cast<std::uint64_t>(std::countr_zero(bits));
        kept |= std::uint64_t{core::mix64(key + j * core::kGoldenGamma) >=
                              cutoff}
                << j;
    }
    return kept;
}

/** The threshold `prune` applies to a segment: its producer's, or 0
 *  for the raw image or without a config. */
std::int32_t
segmentThreshold(const Activity::Segment &seg, const PruneConfig *prune)
{
    return prune && seg.producerConvIndex >= 0
               ? prune->forConvIndex(
                     static_cast<std::size_t>(seg.producerConvIndex))
               : 0;
}

/** Half-width of the band around 1 where r * sc cannot order r
 *  against 1 / sc rounded, so countBelowReciprocal divides. */
constexpr double kTieBand = 0x1.0p-50;

/**
 * countBelowReciprocal where the rates next to the guess `k` do not
 * settle the count: the gallop, out of line so that the common case
 * stays small.
 */
[[gnu::noinline]] std::size_t
gallopBelowReciprocal(const std::vector<double> &sorted, double sc,
                      std::size_t k)
{
    // r * sc and 1 / sc each round by at most 2^-53 relative (by
    // less, relative to r, where a result is subnormal, zero or
    // infinite), so a product outside 1 +- kTieBand orders r against
    // 1 / sc rounded; a NaN product takes the divide.
    const auto below = [&](std::size_t i) {
        const double p = sorted[i] * sc;
        if (p < 1.0 - kTieBand)
            return true;
        if (p > 1.0 + kTieBand)
            return false;
        return sorted[i] < 1.0 / sc;
    };
    std::size_t lo = 0; // the count lies in [lo, hi]
    std::size_t hi = 0;
    std::size_t step = 1;
    if (k < sorted.size() && below(k)) {
        lo = k + 1;
        for (; lo + step <= sorted.size() && below(lo + step - 1); step *= 2)
            lo += step;
        hi = std::min(sorted.size(), lo + step - 1);
    } else if (k > 0 && !below(k - 1)) {
        hi = k - 1;
        for (; hi >= step && !below(hi - step); step *= 2)
            hi -= step;
        lo = hi >= step ? hi - step + 1 : 0;
    } else {
        return k;
    }
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (below(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace

std::size_t
countBelowReciprocal(const std::vector<double> &sorted, double sc,
                     std::size_t k)
{
    // Most columns keep the previous column's count, which the
    // products of the two rates around it settle (the band's bound is
    // argued in gallopBelowReciprocal).
    if ((k == sorted.size() || sorted[k] * sc > 1.0 + kTieBand) &&
        (k == 0 || sorted[k - 1] * sc < 1.0 - kTieBand)) [[likely]]
        return k;
    return gallopBelowReciprocal(sorted, sc, k);
}

ActivityField
drawActivityField(int width, int height, int depth,
                  const SparsityModel &model, sim::Rng &rng)
{
    ActivityField field;
    field.active = 1.0 - std::clamp(model.zeroFraction, 0.0, 1.0);
    if (field.active <= 0.0 || field.active >= 1.0)
        return field;

    // Per-channel firing-rate multipliers and a coarse spatial field.
    field.channelRate.resize(static_cast<std::size_t>(depth));
    for (double &r : field.channelRate)
        r = std::exp(rng.normal(0.0, model.channelDispersion));
    const int grid = std::max(2, model.spatialGrid);
    const SpatialField spatial(grid, model.spatialDispersion, rng);
    field.spatial.reserve(static_cast<std::size_t>(width) *
                          static_cast<std::size_t>(height));
    spatial.forEachColumn(width, height,
                          [&](double s) { field.spatial.push_back(s); });

    // Normalise so the mean of q matches the target; clamping to [0,1]
    // shifts the mean, so iterate a few times. With the rates sorted
    // and prefix-summed, a column whose factor s * c is `sc` sums to
    // sc * prefix[k] + (depth - k), k being the number of rates below
    // 1 / sc. The field is smooth, so k is galloped from the previous
    // column's: O(XY log Z) per pass at worst, O(XY) as a rule, and
    // with no divide but near a tie.
    std::vector<double> sorted = field.channelRate;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> prefix(sorted.size() + 1, 0.0);
    std::partial_sum(sorted.begin(), sorted.end(), prefix.begin() + 1);
    const double elems = static_cast<double>(field.spatial.size()) * depth;
    for (int iter = 0; iter < 4; ++iter) {
        const double c = field.scale * field.active;
        double mean = 0.0;
        std::size_t k = 0;
        for (const double s : field.spatial) {
            const double sc = s * c;
            k = countBelowReciprocal(sorted, sc, k);
            mean += sc * prefix[k] + static_cast<double>(depth - k);
        }
        mean /= elems;
        if (mean <= 0.0)
            break;
        field.scale *= field.active / mean;
    }
    return field;
}

Activity
synthesizeActivity(Shape3 shape, const SparsityModel &model, sim::Rng &rng)
{
    Activity a;
    a.mask = tensor::ActivityMask(shape);
    a.segments.push_back(drawActivity(shape.z, 0, model, rng, a.mask));
    return a;
}

int
magnitudeOfDraw(std::uint64_t u)
{
    return magnitudeTable().draw(u);
}

std::optional<std::uint64_t>
magnitudeCutoff(std::int32_t threshold)
{
    if (threshold <= 1)
        return 0;
    if (threshold > kMaxMagnitude)
        return std::nullopt;
    return magnitudeThreshold(threshold - 1);
}

tensor::ActivityMask
prunedMask(const Activity &activity, const PruneConfig *prune)
{
    tensor::ActivityMask out(activity.mask.shape());
    int zBase = 0;
    for (const Activity::Segment &seg : activity.segments) {
        if (const auto c = magnitudeCutoff(segmentThreshold(seg, prune)))
            forEachWord(seg, zBase, activity.mask,
                        [&, cutoff = *c](auto at, auto key, auto bits) {
                            out.setBits(at, keptDraws(key, bits, cutoff));
                        });
        zBase += seg.depth;
    }
    return out;
}

NeuronTensor
synthesizeValues(const Activity &activity, const PruneConfig *prune)
{
    const MagnitudeTable &table = magnitudeTable();
    NeuronTensor out(activity.mask.shape());
    int zBase = 0;
    for (const Activity::Segment &seg : activity.segments) {
        const std::int32_t threshold = segmentThreshold(seg, prune);
        forEachWord(seg, zBase, activity.mask,
                    [&](auto at, auto key, auto bits) {
                        drawWord(table, key, bits, threshold,
                                 out.data() + at);
                    });
        zBase += seg.depth;
    }
    return out;
}

NeuronTensor
synthesizeActivations(Shape3 shape, const SparsityModel &model, sim::Rng &rng)
{
    return synthesizeValues(synthesizeActivity(shape, model, rng));
}

NeuronTensor
synthesizeImage(Shape3 shape, std::uint64_t seed)
{
    sim::Rng rng(seed ^ 0x1a2b3c4dULL);
    // Coarse per-image content field plus per-channel gains: two
    // images differ in *where* and *in which channels* they have
    // energy, not just in pixel noise.
    SpatialField field(4, 0.7, rng);
    std::vector<double> channelGain(shape.z);
    for (double &g : channelGain)
        g = std::exp(rng.normal(0.0, 0.3));

    // Raw draw, then a global normalisation to constant mean energy
    // (images differ in structure, not overall brightness — fixed
    // biases downstream would otherwise amplify energy differences).
    std::vector<double> raw(shape.volume());
    std::size_t idx = 0;
    double sum = 0.0;
    field.forEachColumn(shape.x, shape.y, [&](double local) {
        for (int z = 0; z < shape.z; ++z) {
            const double val =
                std::abs(rng.normal(0.4, 0.2)) * local * channelGain[z];
            raw[idx++] = val;
            sum += val;
        }
    });
    const double mean = sum / static_cast<double>(raw.size());
    const double norm = mean > 1e-9 ? 0.4 / mean : 1.0;

    NeuronTensor out(shape);
    Fixed16 *data = out.data();
    for (std::size_t i = 0; i < raw.size(); ++i)
        data[i] = Fixed16::fromDouble(raw[i] * norm);
    return out;
}

std::vector<TraceSegment>
inputSegments(const Network &net, int convNodeId)
{
    const Node &conv = net.node(convNodeId);
    CNV_ASSERT(conv.kind == NodeKind::Conv, "inputSegments expects a conv");

    // Walk upstream through pass-through nodes, concatenating the
    // segments of concat inputs in order.
    std::vector<TraceSegment> result;
    auto walk = [&](auto &&self, int id) -> void {
        const Node &n = net.node(id);
        switch (n.kind) {
          case NodeKind::Input:
            result.push_back({n.outShape.z, -1});
            return;
          case NodeKind::Conv:
            result.push_back({n.outShape.z, n.convIndex});
            return;
          case NodeKind::Pool:
          case NodeKind::Lrn:
          case NodeKind::Softmax:
            self(self, n.inputs[0]);
            return;
          case NodeKind::Concat:
            for (int in : n.inputs)
                self(self, in);
            return;
          case NodeKind::Fc:
            result.push_back({n.outShape.z, -1});
            return;
        }
    };
    walk(walk, conv.inputs[0]);

    int total = 0;
    for (const TraceSegment &s : result)
        total += s.depth;
    CNV_ASSERT(total == conv.inShape.z,
               "segment depths {} != input depth {} for '{}'", total,
               conv.inShape.z, conv.name);
    return result;
}

Activity
synthesizeConvActivity(const Network &net, int convNodeId,
                       std::uint64_t imageSeed)
{
    const Node &conv = net.node(convNodeId);
    CNV_ASSERT(conv.kind == NodeKind::Conv,
               "synthesizeConvActivity needs conv");
    Activity a;
    a.mask = tensor::ActivityMask(conv.inShape);
    int zBase = 0;
    const std::vector<TraceSegment> segments = inputSegments(net, convNodeId);
    for (std::size_t si = 0; si < segments.size(); ++si) {
        const TraceSegment &seg = segments[si];
        // Independent stream per (image, conv layer, segment).
        sim::Rng rng = sim::Rng(imageSeed)
                           .fork(0x7a0000 + static_cast<std::uint64_t>(
                                                conv.convIndex))
                           .fork(si);

        SparsityModel model;
        if (seg.producerConvIndex < 0) {
            // Raw image data (or flattened FC data): essentially dense.
            model.zeroFraction = 0.01;
            model.channelDispersion = 0.05;
            model.spatialDispersion = 0.05;
        } else {
            model.zeroFraction = conv.conv.inputZeroFraction;
        }
        Activity::Segment &s = a.segments.emplace_back(
            drawActivity(seg.depth, zBase, model, rng, a.mask));
        s.producerConvIndex = seg.producerConvIndex;
        zBase += seg.depth;
    }
    return a;
}

NeuronTensor
synthesizeConvInput(const Network &net, int convNodeId,
                    std::uint64_t imageSeed, const PruneConfig *prune)
{
    return synthesizeValues(synthesizeConvActivity(net, convNodeId, imageSeed),
                            prune);
}

double
zeroOperandFraction(const Network &net, std::uint64_t imageSeed,
                    const PruneConfig *prune)
{
    double weightedZero = 0.0;
    double totalMacs = 0.0;
    for (int id : net.convNodeIds()) {
        const Node &n = net.node(id);
        // Every input neuron participates in the same number of
        // products for a given layer, so the operand zero fraction
        // equals the tensor zero fraction, MAC-weighted per layer.
        const tensor::ActivityMask mask =
            prunedMask(synthesizeConvActivity(net, id, imageSeed), prune);
        const double zf =
            mask.size() > 0
                ? static_cast<double>(mask.size() - mask.count()) /
                      static_cast<double>(mask.size())
                : 0.0;
        const double macs = static_cast<double>(n.macs());
        weightedZero += zf * macs;
        totalMacs += macs;
    }
    return totalMacs > 0.0 ? weightedZero / totalMacs : 0.0;
}

} // namespace cnv::nn
