/**
 * @file
 * Quickstart: the library in ~80 lines.
 *
 *  1. Build a sparse activation tensor and encode it in ZFNAf.
 *  2. Run one convolutional layer through the cycle-level DaDianNao
 *     baseline and through CNV.
 *  3. Check the outputs match bit-exactly and compare cycle counts.
 *
 * Build and run:  ./build/examples/quickstart
 */

#include <iostream>

#include "nn/ops.h"
#include "ref/baseline_nfu.h"
#include "ref/cnv_unit.h"
#include "sim/rng.h"
#include "zfnaf/format.h"

int
main()
{
    using namespace cnv;

    // A 16x16 input with 128 features, ~44% zeros (the paper's
    // average) — what a mid-network conv layer sees after ReLU.
    tensor::NeuronTensor input(16, 16, 128);
    sim::Rng rng(2016);
    for (tensor::Fixed16 &v : input) {
        v = rng.bernoulli(0.44)
            ? tensor::Fixed16{}
            : tensor::Fixed16::fromDouble(rng.uniform(0.05, 1.5));
    }

    // A 3x3 convolution with 64 filters.
    nn::ConvParams layer;
    layer.filters = 64;
    layer.fx = layer.fy = 3;
    layer.stride = 1;
    layer.pad = 1;

    tensor::FilterBank weights(layer.filters, 3, 3, 128);
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights.data()[i] =
            tensor::Fixed16::fromDouble(rng.normal(0.0, 0.05));
    std::vector<tensor::Fixed16> bias(layer.filters);

    const dadiannao::NodeConfig node; // the paper's configuration

    // Baseline: all lanes in lock step, zeros multiplied anyway.
    const auto base =
        ref::simulateConvBaseline(node, layer, input, weights,
                                  bias, false);

    // CNV: encode to the Zero-Free Neuron Array format, then skip.
    const zfnaf::EncodedArray encoded = zfnaf::encode(input);
    const auto cnvRun =
        ref::simulateConvCnv(node, layer, encoded, weights, bias);

    std::cout << "input zeros            : "
              << 100.0 * tensor::zeroFraction(input) << "%\n";
    std::cout << "ZFNAf stored neurons   : " << encoded.totalNonZero()
              << " of " << input.size() << " (offset field: "
              << encoded.offsetBits() << " bits)\n";
    std::cout << "baseline cycles        : " << base.timing.cycles << '\n';
    std::cout << "CNV cycles             : " << cnvRun.timing.cycles
              << '\n';
    std::cout << "speedup                : "
              << static_cast<double>(base.timing.cycles) /
                     static_cast<double>(cnvRun.timing.cycles)
              << "x\n";
    std::cout << "outputs bit-identical  : "
              << (base.output == cnvRun.output ? "yes" : "NO") << '\n';

    // The golden model agrees too.
    const auto golden = nn::conv2d(input, weights, bias, layer);
    std::cout << "golden model agrees    : "
              << (golden == cnvRun.output ? "yes" : "NO") << '\n';
    return golden == cnvRun.output && base.output == cnvRun.output ? 0 : 1;
}
