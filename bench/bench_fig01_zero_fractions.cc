/**
 * @file
 * Figure 1 + Table I: the networks under study and the average
 * fraction of convolutional-layer multiplication operands that are
 * zero-valued neurons, with variation across input images. Also
 * reproduces Section II's zero-position stability observation (no
 * neuron is always zero across inputs; almost none are zero with
 * very high probability).
 */

#include <cmath>
#include <vector>

#include "common.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "zfnaf/format.h"

using namespace cnv;

namespace {

/** Paper Figure 1 values for side-by-side comparison. */
double
paperZeroFraction(nn::zoo::NetId id)
{
    return nn::zoo::zeroOperandTarget(id);
}

void
tableOne(const driver::CliOptions &opts)
{
    sim::Table t({"network", "conv layers", "source (paper Table I)"});
    const char *sources[] = {
        "Caffe: bvlc_reference_caffenet",
        "Caffe: bvlc_googlenet",
        "Model Zoo: NIN-imagenet",
        "Model Zoo: VGG 19-layer",
        "Model Zoo: VGG_CNN_M_2048",
        "Model Zoo: VGG_CNN_S",
    };
    int i = 0;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, opts.cfg.seed);
        t.addRow({nn::zoo::netName(id),
                  std::to_string(net->convLayerCount()), sources[i++]});
    }
    bench::emit(opts, "Table I: networks used", t);
}

void
figureOne(const driver::CliOptions &opts)
{
    sim::Table t({"network", "zero operands (measured)", "stddev",
                  "paper (Fig. 1)"});
    double sum = 0.0;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, opts.cfg.seed);
        double mean = 0.0, sq = 0.0;
        for (int i = 0; i < opts.cfg.images; ++i) {
            const double f =
                nn::zeroOperandFraction(*net, opts.cfg.seed + 100 + i);
            mean += f;
            sq += f * f;
        }
        mean /= opts.cfg.images;
        const double var = sq / opts.cfg.images - mean * mean;
        sum += mean;
        t.addRow({nn::zoo::netName(id), sim::Table::pct(mean),
                  sim::Table::pct(var > 0 ? std::sqrt(var) : 0.0),
                  sim::Table::pct(paperZeroFraction(id))});
    }
    t.addRow({"average", sim::Table::pct(sum / 6), "", "44.0%"});
    bench::emit(opts,
                "Figure 1: fraction of conv multiplication operands that "
                "are zero neurons",
                t);
}

void
zeroStability(const driver::CliOptions &opts)
{
    // Section II: zero positions move with the input. Measure, on a
    // representative mid-network layer input, the fraction of neuron
    // positions that are zero in >= 99% of images and in all images.
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, opts.cfg.seed);
    const int node = net->convNodeIds()[2]; // conv3's input
    const int images = std::max(32, opts.cfg.images * 8);

    // Zero-ness is stage 1's mask alone; no magnitude is drawn.
    std::vector<int> zeroCount;
    for (int i = 0; i < images; ++i) {
        const tensor::ActivityMask mask =
            nn::synthesizeConvActivity(*net, node, opts.cfg.seed + 500 + i)
                .mask;
        if (zeroCount.empty())
            zeroCount.assign(mask.size(), 0);
        for (std::size_t k = 0; k < mask.size(); ++k)
            zeroCount[k] += !mask.test(k);
    }
    std::size_t always = 0, mostly = 0;
    for (int c : zeroCount) {
        if (c == images)
            ++always;
        if (c >= static_cast<int>(0.99 * images))
            ++mostly;
    }
    const double n = static_cast<double>(zeroCount.size());

    sim::Table t({"statistic", "measured", "paper (Sec. II)"});
    t.addRow({"neurons zero in every sampled image",
              sim::Table::pct(always / n), "0% over 1000 images (none)"});
    t.addRow({"neurons zero with >=99% probability",
              sim::Table::pct(mostly / n), "0.6% over 1000 images"});
    bench::emit(opts, "Zero-position stability (alex conv3 input)", t);
}

} // namespace

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Images, Seed, Quick}, 4);
    tableOne(opts);
    figureOne(opts);
    if (!opts.quick)
        zeroStability(opts);
    return 0;
}
