/**
 * @file
 * Seeded randomised differential test of nn::pool2d, which pools
 * whole depth columns at a time, against the per-element oracle
 * below: the straightforward loop over every (output, channel) pair
 * through Tensor3::at. Cases span window size, stride, padding
 * (including windows that hang past the input), depth and both
 * pooling ops, with raw values across the whole Q7.8 range.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "nn/ops.h"

namespace {

using namespace cnv;
using tensor::Accum;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

/** Per-element pooling: one (output, channel) pair at a time. */
NeuronTensor
referencePool(const NeuronTensor &in, const nn::PoolParams &p)
{
    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    NeuronTensor out(outShape);
    for (int oy = 0; oy < outShape.y; ++oy) {
        for (int ox = 0; ox < outShape.x; ++ox) {
            const int x0 = ox * p.stride - p.pad;
            const int y0 = oy * p.stride - p.pad;
            const int x1 = std::min(x0 + p.k, inShape.x);
            const int y1 = std::min(y0 + p.k, inShape.y);
            const int xs = std::max(x0, 0);
            const int ys = std::max(y0, 0);
            for (int z = 0; z < inShape.z; ++z) {
                if (p.op == nn::PoolParams::Op::Max) {
                    Fixed16 best = (xs < x1 && ys < y1)
                        ? Fixed16::fromRaw(
                              static_cast<std::int16_t>(Fixed16::kRawMin))
                        : Fixed16{};
                    for (int iy = ys; iy < y1; ++iy)
                        for (int ix = xs; ix < x1; ++ix)
                            best = std::max(best, in.at(ix, iy, z));
                    out.at(ox, oy, z) = best;
                } else {
                    Accum sum = 0;
                    for (int iy = ys; iy < y1; ++iy)
                        for (int ix = xs; ix < x1; ++ix)
                            sum += in.at(ix, iy, z).raw();
                    const int denom = p.k * p.k;
                    out.at(ox, oy, z) = Fixed16::saturateFromRaw(
                        (sum + (sum >= 0 ? denom / 2 : -denom / 2)) / denom);
                }
            }
        }
    }
    return out;
}

TEST(PoolOracle, MatchesPerElementReferenceOnRandomShapes)
{
    std::mt19937_64 rng(1402);
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             hi - lo + 1));
    };
    for (int c = 0; c < 400; ++c) {
        nn::PoolParams p;
        p.op = pick(0, 1) == 0 ? nn::PoolParams::Op::Max
                               : nn::PoolParams::Op::Avg;
        p.k = pick(1, 5);
        p.stride = pick(1, 4);
        p.pad = pick(0, p.k - 1);
        const Shape3 shape{pick(p.k, 17), pick(p.k, 17), pick(1, 70)};
        NeuronTensor in(shape);
        // Mostly small magnitudes, some zeros, and the raw extremes.
        for (Fixed16 &v : in) {
            const int kind = pick(0, 9);
            v = Fixed16::fromRaw(static_cast<std::int16_t>(
                kind == 0   ? Fixed16::kRawMin
                : kind == 1 ? Fixed16::kRawMax
                : kind < 4  ? 0
                            : pick(-2000, 2000)));
        }
        SCOPED_TRACE(testing::Message()
                     << "case " << c << ": in " << shape.x << "x" << shape.y
                     << "x" << shape.z << ", k " << p.k << ", stride "
                     << p.stride << ", pad " << p.pad << ", avg "
                     << (p.op == nn::PoolParams::Op::Avg));
        EXPECT_EQ(nn::pool2d(in, p), referencePool(in, p));
    }
}

} // namespace
