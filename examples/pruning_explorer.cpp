/**
 * @file
 * Dynamic-pruning exploration (Section V-E): finds the largest
 * per-layer "near zero" thresholds that change no prediction, then
 * walks past the lossless point to show the accuracy/speedup
 * trade-off of Figure 14.
 *
 * Usage: ./build/examples/pruning_explorer [network]
 *   network: alex|google|nin|vgg19|cnnM|cnnS   (default cnnS)
 */

#include <iostream>

#include "driver/driver.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/table.h"

int
main(int argc, char **argv)
{
    using namespace cnv;

    const std::string name = argc > 1 ? argv[1] : "cnnS";
    const auto id = nn::zoo::netFromName(name);

    std::cout << "building " << name
              << " (full geometry for timing, 1/8 scale for accuracy)\n";
    const auto fullNet = nn::zoo::build(id, 2016);
    auto accNet = nn::zoo::build(id, 2016, 8);
    accNet->calibrate();

    const dadiannao::NodeConfig node;
    pruning::SearchOptions opts;
    opts.accuracyImages = 10;
    opts.timingImages = 1;

    driver::ExperimentConfig plain;
    plain.node = node;
    plain.images = 1;
    plain.seed = opts.seed;
    std::cout << "zero-skipping speedup (no pruning): "
              << driver::evaluateNetwork(plain, *fullNet).speedup()
              << "x\n";

    std::cout << "searching lossless thresholds (greedy, power-of-two "
                 "ladder)...\n";
    const auto lossless =
        pruning::searchLossless(node, *fullNet, *accNet, opts);

    std::cout << "lossless thresholds:";
    for (std::int32_t t : lossless.config.thresholds)
        std::cout << ' ' << t;
    std::cout << "\nlossless speedup: " << lossless.speedup
              << "x at relative accuracy "
              << 100.0 * lossless.relativeAccuracy << "%\n";

    std::cout << "\nsweeping past the lossless point (Figure 14)...\n";
    const auto points =
        pruning::tradeoffSweep(node, *fullNet, *accNet, opts);
    sim::Table t({"speedup", "relative accuracy"});
    for (const auto &pt : pruning::paretoFrontier(points))
        t.addRow({sim::Table::num(pt.speedup),
                  sim::Table::pct(pt.relativeAccuracy)});
    t.print(std::cout);
    return 0;
}
