/**
 * @file
 * Layer parameter records shared by the functional engine, the
 * trace generator, and the timing models.
 *
 * Geometry follows Section III-A: a convolutional layer applies N
 * filters of Fx x Fy x i synapses over an Ix x Iy x i input with
 * stride S, producing an Ox x Oy x N output,
 * Ox = (Ix - Fx)/S + 1 (plus padding). Grouped convolutions (used
 * by alex/cnnM) split both input features and filters into
 * independent groups.
 */

#ifndef CNV_NN_LAYER_H
#define CNV_NN_LAYER_H

#include <cstddef>
#include <string>

#include "tensor/tensor.h"

namespace cnv::nn {

/** Kinds of network nodes. */
enum class NodeKind
{
    Input,
    Conv,      ///< convolution (+ optional fused ReLU)
    Pool,      ///< max or average pooling
    Lrn,       ///< local response normalisation (across channels)
    Fc,        ///< fully connected (+ optional fused ReLU)
    Concat,    ///< depth concatenation (inception modules)
    Softmax,   ///< final classifier normalisation
};

/** Convolution geometry and options. */
struct ConvParams
{
    int filters = 0;     ///< N
    int fx = 0;          ///< filter width
    int fy = 0;          ///< filter height
    int stride = 1;      ///< S
    int pad = 0;         ///< symmetric zero padding
    int groups = 1;      ///< grouped convolution factor
    bool relu = true;    ///< fused rectifier (Section II)

    /**
     * Target fraction of *input* neurons that are zero, used by the
     * trace generator; the calibration pass scales these so the
     * op-weighted network average matches the paper's Figure 1.
     */
    double inputZeroFraction = 0.0;

    /** Computed output shape for the given input. */
    tensor::Shape3 outputShape(const tensor::Shape3 &in) const;

    /** Multiply operations performed by this layer. */
    std::size_t macs(const tensor::Shape3 &in) const;

    /** Synapse count (weights). */
    std::size_t synapses(const tensor::Shape3 &in) const;
};

/** Pooling geometry. */
struct PoolParams
{
    enum class Op { Max, Avg };

    Op op = Op::Max;
    int k = 2;        ///< window size (k x k)
    int stride = 2;
    int pad = 0;

    /**
     * Caffe-compatible output shape: pooling rounds *up* so no input
     * is dropped (convolution rounds down).
     */
    tensor::Shape3 outputShape(const tensor::Shape3 &in) const;
};

/** Local response normalisation across channels (AlexNet-style). */
struct LrnParams
{
    int localSize = 5;
    double alpha = 1e-4;
    double beta = 0.75;
    double k = 1.0;
};

/** Fully-connected layer. */
struct FcParams
{
    int outputs = 0;
    bool relu = true;

    std::size_t
    macs(const tensor::Shape3 &in) const
    {
        return in.volume() * static_cast<std::size_t>(outputs);
    }

    std::size_t
    synapses(const tensor::Shape3 &in) const
    {
        return macs(in);
    }
};

} // namespace cnv::nn

#endif // CNV_NN_LAYER_H
