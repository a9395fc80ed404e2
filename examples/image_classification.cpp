/**
 * @file
 * End-to-end image classification on the functional node models:
 * runs a reduced-scale AlexNet through both the DaDianNao baseline
 * and the CNV node, layer by layer, validating that CNV computes
 * the exact same classification while spending fewer cycles on
 * every convolutional layer after the first.
 *
 * Usage: ./build/examples/image_classification [network] [scale]
 *   network: alex|google|nin|vgg19|cnnM|cnnS   (default alex)
 *   scale:   geometry reduction factor          (default 4)
 */

#include <iomanip>
#include <iostream>

#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "ref/baseline_node.h"
#include "ref/cnv_node.h"
#include "sim/table.h"

int
main(int argc, char **argv)
{
    using namespace cnv;

    const std::string name = argc > 1 ? argv[1] : "alex";
    const int scale = argc > 2 ? std::stoi(argv[2]) : 4;

    std::cout << "building " << name << " at 1/" << scale
              << " scale and calibrating synthetic weights...\n";
    auto net = nn::zoo::build(nn::zoo::netFromName(name), 2016, scale);
    net->calibrate();

    const auto image = nn::synthesizeImage(net->node(0).outShape, 7);

    const dadiannao::NodeConfig node;
    ref::BaselineNodeModel baseline{node};
    ref::CnvNodeModel cnv{node};

    std::cout << "running the baseline node...\n";
    const auto baseRun = baseline.run(*net, image);
    std::cout << "running the CNV node...\n";
    const auto cnvRun = cnv.run(*net, image);

    sim::Table t({"layer", "baseline cycles", "CNV cycles", "speedup"});
    // Both models emit the same layer sequence.
    for (std::size_t i = 0; i < baseRun.timing.layers.size(); ++i) {
        const auto &b = baseRun.timing.layers[i];
        const auto &c = cnvRun.timing.layers[i];
        if (b.cycles == 0 && c.cycles == 0)
            continue;
        t.addRow({b.name, sim::Table::intNum(b.cycles),
                  sim::Table::intNum(c.cycles),
                  c.cycles ? sim::Table::num(
                                 static_cast<double>(b.cycles) / c.cycles)
                           : "-"});
    }
    t.addRow({"total", sim::Table::intNum(baseRun.timing.totalCycles()),
              sim::Table::intNum(cnvRun.timing.totalCycles()),
              sim::Table::num(
                  static_cast<double>(baseRun.timing.totalCycles()) /
                  cnvRun.timing.totalCycles())});
    t.print(std::cout);

    std::cout << "\nbaseline top-1 class : " << baseRun.top1 << '\n';
    std::cout << "CNV top-1 class      : " << cnvRun.top1 << '\n';
    std::cout << "outputs bit-identical: "
              << (baseRun.final == cnvRun.final ? "yes" : "NO") << '\n';
    return baseRun.final == cnvRun.final ? 0 : 1;
}
