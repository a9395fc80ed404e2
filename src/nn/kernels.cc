#include "nn/kernels.h"

#include <algorithm>
#include <limits>

#include "core/simd.h"

namespace cnv::nn::kernels {

using tensor::Accum;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

namespace {

namespace simd = core::simd;

/**
 * One layer input compacted to its non-zero neurons, run by run: a
 * run is one (column, group) slice of depth `depth`, in memory
 * order. Entry k of run r holds the neuron's raw value and the
 * offset of its weight row in a group's packed tap.
 */
struct NonZeroRuns
{
    const std::size_t *start; ///< run r spans [start[r], start[r+1])
    const std::uint32_t *weightOffset;
    const std::int16_t *value;
    std::int32_t maxAbs; ///< largest |raw| neuron
};

NonZeroRuns
compactNonZeros(const NeuronTensor &in, int groups, int paddedFilters,
                core::Arena &arena)
{
    const int depth = in.shape().z / groups;
    const std::size_t runs =
        static_cast<std::size_t>(in.shape().x) * in.shape().y * groups;
    std::size_t *start = arena.allocate<std::size_t>(runs + 1);
    auto *offset = arena.allocate<std::uint32_t>(in.size());
    auto *value = arena.allocate<std::int16_t>(in.size());
    std::int32_t maxAbs = 0;
    std::size_t k = 0;
    const Fixed16 *src = in.data();
    for (std::size_t r = 0; r < runs; ++r, src += depth) {
        start[r] = k;
        for (int z = 0; z < depth; ++z) {
            // Branch-free append: every slot is written, and only a
            // non-zero advances the cursor.
            offset[k] = static_cast<std::uint32_t>(z) *
                        static_cast<std::uint32_t>(paddedFilters);
            value[k] = src[z].raw();
            k += src[z].raw() != 0;
            maxAbs = std::max(maxAbs, src[z].rawAbs());
        }
    }
    start[runs] = k;
    return {start, offset, value, maxAbs};
}

/** One output window's in-bounds taps for one group. */
struct Window
{
    int taps = 0;
    std::size_t *runs;       ///< the tap's input run
    const Fixed16 **weights; ///< the tap's packed weights for the group
};

/** MacBlocks per register tile (sharing one walk of the non-zeros). */
constexpr int kTileBlocks = 4;

/**
 * acc[i] += the window's sum of neuron * weight for the `Blocks` *
 * kMacLanes filters from `filter0` on: every non-zero neuron of
 * every tap broadcast against its contiguous weight row.
 */
template <int Blocks>
void
macTile(const NonZeroRuns &nz, const Window &win, int filter0,
        std::int64_t flushEvery, std::int64_t *acc)
{
    simd::MacBlock mac[Blocks];
    std::int64_t pending = 0;
    for (int t = 0; t < win.taps; ++t) {
        const Fixed16 *wTap = win.weights[t] + filter0;
        const std::size_t end = nz.start[win.runs[t] + 1];
        for (std::size_t i = nz.start[win.runs[t]]; i < end; ++i) {
            if (pending == flushEvery) {
                for (int b = 0; b < Blocks; ++b)
                    mac[b].flush(acc + b * simd::kMacLanes);
                pending = 0;
            }
            const Fixed16 *w = wTap + nz.weightOffset[i];
            for (int b = 0; b < Blocks; ++b)
                mac[b].mulAcc(nz.value[i], w + b * simd::kMacLanes);
            ++pending;
        }
    }
    for (int b = 0; b < Blocks; ++b)
        mac[b].flush(acc + b * simd::kMacLanes);
}

/**
 * Call visit(filter, kx, ky, z, packed element) for every real
 * (unpadded) weight, in packed order: the one place that knows the
 * layout.
 */
template <typename Packed, typename Visit>
void
forEachPacked(Packed &packed, Visit visit)
{
    const tensor::Shape4 s = packed.shape;
    const int perGroup = s.n / packed.groups;
    auto *row = packed.data.data();
    for (int g = 0; g < packed.groups; ++g) {
        for (int ky = 0; ky < s.y; ++ky) {
            for (int kx = 0; kx < s.x; ++kx) {
                for (int z = 0; z < s.z; ++z, row += packed.paddedFilters) {
                    for (int j = 0; j < perGroup; ++j)
                        visit(g * perGroup + j, kx, ky, z, row[j]);
                }
            }
        }
    }
}

} // namespace

Accum
dotRaw(const Fixed16 *a, const Fixed16 *b, std::size_t n)
{
    simd::DotAccum acc;
    std::size_t i = 0;
    const std::size_t lanes = static_cast<std::size_t>(simd::kLanes);
    for (; i + lanes <= n; i += lanes)
        acc.mulAcc(simd::loadFull(a + i), simd::loadFull(b + i));
    if (i < n) {
        const int tail = static_cast<int>(n - i);
        acc.mulAcc(simd::loadPartial(a + i, tail),
                   simd::loadPartial(b + i, tail));
    }
    return acc.total();
}

PackedConvWeights
packConvWeights(const FilterBank &weights, int groups)
{
    const tensor::Shape4 s = weights.shape();
    PackedConvWeights packed;
    packed.shape = s;
    packed.groups = groups;
    packed.paddedFilters = (s.n / groups + simd::kMacLanes - 1) /
                           simd::kMacLanes * simd::kMacLanes;
    packed.data.assign(static_cast<std::size_t>(groups) * s.y * s.x * s.z *
                           packed.paddedFilters,
                       Fixed16{});
    forEachPacked(packed, [&](int f, int kx, int ky, int z, Fixed16 &w) {
        w = weights.at(f, kx, ky, z);
        packed.maxAbs = std::max(packed.maxAbs, w.rawAbs());
    });
    return packed;
}

FilterBank
unpackConvWeights(const PackedConvWeights &packed)
{
    FilterBank weights(packed.shape);
    forEachPacked(packed,
                  [&](int f, int kx, int ky, int z, const Fixed16 &w) {
                      weights.at(f, kx, ky, z) = w;
                  });
    return weights;
}

NeuronTensor
convForward(const NeuronTensor &in, const PackedConvWeights &weights,
            const std::vector<Fixed16> &bias, const ConvParams &p,
            core::Arena &arena)
{
    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    const int filtersPerGroup = p.filters / p.groups;
    const int padded = weights.paddedFilters;
    const std::size_t tapStride =
        static_cast<std::size_t>(weights.shape.z) * padded;
    const std::size_t groupStride = tapStride * p.fy * p.fx;
    const NonZeroRuns nz = compactNonZeros(in, p.groups, padded, arena);

    // Exactness: each lane adds products bounded by
    // maxProduct = max|n| * max|w| <= 2^30, so `flushEvery` of them
    // always fit in int32; the lanes move into int64 before more
    // arrive. flushEvery >= 1 for every input, INT16_MIN included.
    const std::int64_t maxProduct =
        static_cast<std::int64_t>(nz.maxAbs) * weights.maxAbs;
    const std::int64_t flushEvery = maxProduct > 0
        ? std::numeric_limits<std::int32_t>::max() / maxProduct
        : std::numeric_limits<std::int64_t>::max();

    NeuronTensor out(outShape);
    Window win;
    win.runs = arena.allocate<std::size_t>(
        static_cast<std::size_t>(p.fx) * p.fy);
    win.weights = arena.allocate<const Fixed16 *>(
        static_cast<std::size_t>(p.fx) * p.fy);
    std::int64_t acc[kTileBlocks * simd::kMacLanes];
    for (int oy = 0; oy < outShape.y; ++oy) {
        // Taps in the zero padding contribute nothing, so they are
        // clipped, not staged.
        const int y0 = oy * p.stride - p.pad;
        const int kyLo = std::max(0, -y0);
        const int kyHi = std::min(p.fy, inShape.y - y0);
        for (int ox = 0; ox < outShape.x; ++ox) {
            const int x0 = ox * p.stride - p.pad;
            const int kxLo = std::max(0, -x0);
            const int kxHi = std::min(p.fx, inShape.x - x0);
            Fixed16 *outCol = &out.at(ox, oy, 0);
            for (int g = 0; g < p.groups; ++g) {
                win.taps = 0;
                for (int ky = kyLo; ky < kyHi; ++ky) {
                    for (int kx = kxLo; kx < kxHi; ++kx) {
                        win.runs[win.taps] =
                            (static_cast<std::size_t>(y0 + ky) * inShape.x +
                             (x0 + kx)) * p.groups + g;
                        win.weights[win.taps] = weights.data.data() +
                            g * groupStride +
                            (static_cast<std::size_t>(ky) * p.fx + kx) *
                                tapStride;
                        ++win.taps;
                    }
                }
                for (int fb = 0; fb < filtersPerGroup;
                     fb += kTileBlocks * simd::kMacLanes) {
                    const int blocks = std::min(
                        kTileBlocks, (padded - fb) / simd::kMacLanes);
                    std::fill(acc, acc + blocks * simd::kMacLanes, 0);
                    // The tile width is a template argument so the
                    // MacBlocks stay in registers.
                    switch (blocks) {
                      case 1:
                        macTile<1>(nz, win, fb, flushEvery, acc);
                        break;
                      case 2:
                        macTile<2>(nz, win, fb, flushEvery, acc);
                        break;
                      case 3:
                        macTile<3>(nz, win, fb, flushEvery, acc);
                        break;
                      default:
                        macTile<kTileBlocks>(nz, win, fb, flushEvery, acc);
                        break;
                    }
                    const int f0 = g * filtersPerGroup + fb;
                    const int nf = std::min(blocks * simd::kMacLanes,
                                            filtersPerGroup - fb);
                    for (int j = 0; j < nf; ++j) {
                        Fixed16 v =
                            Fixed16::productToFixed(acc[j]) + bias[f0 + j];
                        if (p.relu)
                            v = v.relu();
                        outCol[f0 + j] = v;
                    }
                }
            }
        }
    }
    return out;
}

NeuronTensor
convForward(const NeuronTensor &in, const FilterBank &weights,
            const std::vector<Fixed16> &bias, const ConvParams &p,
            core::Arena &arena)
{
    return convForward(in, packConvWeights(weights, p.groups), bias, p,
                       arena);
}

NeuronTensor
convForwardScalar(const NeuronTensor &in, const FilterBank &weights,
                  const std::vector<Fixed16> &bias, const ConvParams &p)
{
    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;

    NeuronTensor out(outShape);
    for (int oy = 0; oy < outShape.y; ++oy) {
        for (int ox = 0; ox < outShape.x; ++ox) {
            const int x0 = ox * p.stride - p.pad;
            const int y0 = oy * p.stride - p.pad;
            for (int f = 0; f < p.filters; ++f) {
                const int group = f / filtersPerGroup;
                const int zBase = group * depthPerGroup;
                Accum acc = 0;
                for (int ky = 0; ky < p.fy; ++ky) {
                    const int iy = y0 + ky;
                    if (iy < 0 || iy >= inShape.y)
                        continue; // zero padding contributes nothing
                    for (int kx = 0; kx < p.fx; ++kx) {
                        const int ix = x0 + kx;
                        if (ix < 0 || ix >= inShape.x)
                            continue;
                        const Fixed16 *nCol = in.column(ix, iy) + zBase;
                        const Fixed16 *sCol =
                            weights.data() + weights.index(f, kx, ky, 0);
                        for (int z = 0; z < depthPerGroup; ++z)
                            acc += mulRaw(nCol[z], sCol[z]);
                    }
                }
                Fixed16 v = Fixed16::productToFixed(acc) + bias[f];
                if (p.relu)
                    v = v.relu();
                out.at(ox, oy, f) = v;
            }
        }
    }
    return out;
}

NeuronTensor
fcForward(const NeuronTensor &in, const FilterBank &weights,
          const std::vector<Fixed16> &bias, const FcParams &p)
{
    const std::size_t volume = in.shape().volume();
    NeuronTensor out(1, 1, p.outputs);
    const Fixed16 *inData = in.data();
    for (int o = 0; o < p.outputs; ++o) {
        const Fixed16 *w =
            weights.data() + static_cast<std::size_t>(o) * volume;
        Fixed16 v =
            Fixed16::productToFixed(dotRaw(inData, w, volume)) + bias[o];
        if (p.relu)
            v = v.relu();
        out.at(0, 0, o) = v;
    }
    return out;
}

NeuronTensor
fcForwardScalar(const NeuronTensor &in, const FilterBank &weights,
                const std::vector<Fixed16> &bias, const FcParams &p)
{
    const std::size_t volume = in.shape().volume();
    NeuronTensor out(1, 1, p.outputs);
    const Fixed16 *inData = in.data();
    for (int o = 0; o < p.outputs; ++o) {
        const Fixed16 *w =
            weights.data() + static_cast<std::size_t>(o) * volume;
        Accum acc = 0;
        for (std::size_t i = 0; i < volume; ++i)
            acc += mulRaw(inData[i], w[i]);
        Fixed16 v = Fixed16::productToFixed(acc) + bias[o];
        if (p.relu)
            v = v.relu();
        out.at(0, 0, o) = v;
    }
    return out;
}

} // namespace cnv::nn::kernels
