#include "nn/layer.h"

#include <cmath>

#include "sim/logging.h"

namespace cnv::nn {

tensor::Shape3
ConvParams::outputShape(const tensor::Shape3 &in) const
{
    CNV_ASSERT(filters > 0 && fx > 0 && fy > 0 && stride > 0,
               "conv parameters not set");
    if (in.z % groups != 0 || filters % groups != 0)
        CNV_FATAL("conv groups={} must divide depth {} and filters {}",
                  groups, in.z, filters);
    const int ox = (in.x + 2 * pad - fx) / stride + 1;
    const int oy = (in.y + 2 * pad - fy) / stride + 1;
    if (ox <= 0 || oy <= 0)
        CNV_FATAL("conv output collapses: input {}x{} filter {}x{} stride {}",
                  in.x, in.y, fx, fy, stride);
    return {ox, oy, filters};
}

std::size_t
ConvParams::macs(const tensor::Shape3 &in) const
{
    const tensor::Shape3 out = outputShape(in);
    const std::size_t windows =
        static_cast<std::size_t>(out.x) * static_cast<std::size_t>(out.y);
    const std::size_t perWindowPerFilter =
        static_cast<std::size_t>(fx) * static_cast<std::size_t>(fy) *
        static_cast<std::size_t>(in.z / groups);
    return windows * perWindowPerFilter * static_cast<std::size_t>(filters);
}

std::size_t
ConvParams::synapses(const tensor::Shape3 &in) const
{
    return static_cast<std::size_t>(filters) * static_cast<std::size_t>(fx) *
           static_cast<std::size_t>(fy) *
           static_cast<std::size_t>(in.z / groups);
}

tensor::Shape3
PoolParams::outputShape(const tensor::Shape3 &in) const
{
    CNV_ASSERT(k > 0 && stride > 0, "pool parameters not set");
    auto ceilDim = [&](int dim) {
        int o = static_cast<int>(
            std::ceil(static_cast<double>(dim + 2 * pad - k) / stride)) + 1;
        // Caffe clips the last window so it starts inside the
        // (padded) input.
        if (pad > 0 && (o - 1) * stride >= dim + pad)
            --o;
        return o;
    };
    const int ox = ceilDim(in.x);
    const int oy = ceilDim(in.y);
    if (ox <= 0 || oy <= 0)
        CNV_FATAL("pool output collapses: input {}x{} window {} stride {}",
                  in.x, in.y, k, stride);
    return {ox, oy, in.z};
}

} // namespace cnv::nn
