#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "sim/logging.h"

namespace cnv::nn {

using tensor::Accum;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

NeuronTensor
conv2d(const NeuronTensor &in, const kernels::PackedConvWeights &weights,
       const std::vector<Fixed16> &bias, const ConvParams &p,
       core::Arena &arena)
{
    const Shape3 inShape = in.shape();
    const int depthPerGroup = inShape.z / p.groups;

    if (weights.shape.n != p.filters || weights.shape.x != p.fx ||
        weights.shape.y != p.fy || weights.shape.z != depthPerGroup ||
        weights.groups != p.groups) {
        CNV_FATAL("conv weight shape ({},{},{},{}) does not match "
                  "params (n={}, fx={}, fy={}, z={})",
                  weights.shape.n, weights.shape.x, weights.shape.y,
                  weights.shape.z, p.filters, p.fx, p.fy, depthPerGroup);
    }
    if (bias.size() != static_cast<std::size_t>(p.filters))
        CNV_FATAL("conv bias count {} != filters {}", bias.size(), p.filters);

    return kernels::convForward(in, weights, bias, p, arena);
}

NeuronTensor
conv2d(const NeuronTensor &in, const FilterBank &weights,
       const std::vector<Fixed16> &bias, const ConvParams &p,
       core::Arena &arena)
{
    return conv2d(in, kernels::packConvWeights(weights, p.groups), bias, p,
                  arena);
}

NeuronTensor
conv2d(const NeuronTensor &in, const FilterBank &weights,
       const std::vector<Fixed16> &bias, const ConvParams &p)
{
    core::Arena arena;
    return conv2d(in, weights, bias, p, arena);
}

NeuronTensor
pool2d(const NeuronTensor &in, const PoolParams &p)
{
    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    NeuronTensor out(outShape);
    const auto depth = static_cast<std::size_t>(inShape.z);
    std::vector<Accum> sum(depth);

    // Whole depth columns at a time: a window's columns are each
    // contiguous, so every output column is a vectorisable max or sum.
    Fixed16 *o = out.data();
    for (int oy = 0; oy < outShape.y; ++oy) {
        for (int ox = 0; ox < outShape.x; ++ox, o += depth) {
            const int x0 = ox * p.stride - p.pad;
            const int y0 = oy * p.stride - p.pad;
            const int x1 = std::min(x0 + p.k, inShape.x);
            const int y1 = std::min(y0 + p.k, inShape.y);
            const int xs = std::max(x0, 0);
            const int ys = std::max(y0, 0);
            if (p.op == PoolParams::Op::Max) {
                // A window that is all padding (possible only with
                // degenerate pad/kernel combinations) yields the
                // padding value, zero.
                std::fill_n(o, depth,
                            (xs < x1 && ys < y1)
                                ? Fixed16::fromRaw(static_cast<std::int16_t>(
                                      Fixed16::kRawMin))
                                : Fixed16{});
                for (int iy = ys; iy < y1; ++iy)
                    for (int ix = xs; ix < x1; ++ix) {
                        const Fixed16 *c = in.column(ix, iy);
                        for (std::size_t z = 0; z < depth; ++z)
                            o[z] = std::max(o[z], c[z]);
                    }
            } else {
                std::fill(sum.begin(), sum.end(), Accum{0});
                for (int iy = ys; iy < y1; ++iy)
                    for (int ix = xs; ix < x1; ++ix) {
                        const Fixed16 *c = in.column(ix, iy);
                        for (std::size_t z = 0; z < depth; ++z)
                            sum[z] += c[z].raw();
                    }
                // Caffe averages over the full (padded) window size.
                const int denom = p.k * p.k;
                for (std::size_t z = 0; z < depth; ++z)
                    o[z] = Fixed16::saturateFromRaw(
                        (sum[z] + (sum[z] >= 0 ? denom / 2 : -denom / 2)) /
                        denom);
            }
        }
    }
    return out;
}

NeuronTensor
lrn(const NeuronTensor &in, const LrnParams &p)
{
    const Shape3 s = in.shape();
    NeuronTensor out(s);
    const int half = p.localSize / 2;

    for (int y = 0; y < s.y; ++y) {
        for (int x = 0; x < s.x; ++x) {
            const Fixed16 *col = in.column(x, y);
            for (int z = 0; z < s.z; ++z) {
                const int z0 = std::max(0, z - half);
                const int z1 = std::min(s.z - 1, z + half);
                double sumSq = 0.0;
                for (int zz = z0; zz <= z1; ++zz) {
                    const double v = col[zz].toDouble();
                    sumSq += v * v;
                }
                const double scale =
                    std::pow(p.k + (p.alpha / p.localSize) * sumSq, -p.beta);
                out.at(x, y, z) =
                    Fixed16::fromDouble(col[z].toDouble() * scale);
            }
        }
    }
    return out;
}

NeuronTensor
fullyConnected(const NeuronTensor &in, const FilterBank &weights,
               const std::vector<Fixed16> &bias, const FcParams &p)
{
    const std::size_t volume = in.shape().volume();
    if (weights.shape().n != p.outputs ||
        static_cast<std::size_t>(weights.shape().z) *
            weights.shape().x * weights.shape().y != volume) {
        CNV_FATAL("fc weight shape does not match input volume {}", volume);
    }
    if (bias.size() != static_cast<std::size_t>(p.outputs))
        CNV_FATAL("fc bias count {} != outputs {}", bias.size(), p.outputs);

    // FC weights are stored as one "filter" per output whose volume
    // equals the input volume, laid out to match the flattened
    // depth-fastest input.
    return kernels::fcForward(in, weights, bias, p);
}

NeuronTensor
concat(const std::vector<const NeuronTensor *> &ins)
{
    CNV_ASSERT(!ins.empty(), "concat needs at least one input");
    const Shape3 first = ins[0]->shape();
    int depth = 0;
    for (const NeuronTensor *t : ins) {
        if (t->shape().x != first.x || t->shape().y != first.y)
            CNV_FATAL("concat inputs disagree on spatial size");
        depth += t->shape().z;
    }
    NeuronTensor out(first.x, first.y, depth);
    for (int y = 0; y < first.y; ++y) {
        for (int x = 0; x < first.x; ++x) {
            int zOut = 0;
            for (const NeuronTensor *t : ins) {
                for (int z = 0; z < t->shape().z; ++z)
                    out.at(x, y, zOut++) = t->at(x, y, z);
            }
        }
    }
    return out;
}

NeuronTensor
softmax(const NeuronTensor &in)
{
    const Shape3 s = in.shape();
    CNV_ASSERT(s.x == 1 && s.y == 1, "softmax expects a 1x1xC tensor");
    double maxV = -1e30;
    for (int z = 0; z < s.z; ++z)
        maxV = std::max(maxV, in.at(0, 0, z).toDouble());
    double sum = 0.0;
    std::vector<double> exps(s.z);
    for (int z = 0; z < s.z; ++z) {
        exps[z] = std::exp(in.at(0, 0, z).toDouble() - maxV);
        sum += exps[z];
    }
    NeuronTensor out(s);
    for (int z = 0; z < s.z; ++z)
        out.at(0, 0, z) = Fixed16::fromDouble(exps[z] / sum);
    return out;
}

int
argmax(const NeuronTensor &logits)
{
    const Shape3 s = logits.shape();
    CNV_ASSERT(s.x == 1 && s.y == 1 && s.z > 0, "argmax expects 1x1xC");
    int best = 0;
    for (int z = 1; z < s.z; ++z) {
        if (logits.at(0, 0, z) > logits.at(0, 0, best))
            best = z;
    }
    return best;
}

} // namespace cnv::nn
