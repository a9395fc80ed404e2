/**
 * @file
 * Design-space exploration with the fast timing models: how CNV's
 * advantage over the baseline moves with the node's shape (units,
 * neuron lanes, NBout depth) and with the dispatcher's empty-brick
 * handling. Demonstrates using NodeConfig as the experiment knob.
 *
 * Usage: ./build/examples/design_space [network]
 */

#include <iostream>

#include "driver/driver.h"
#include "nn/zoo/zoo.h"
#include "sim/table.h"
#include "timing/network_model.h"

int
main(int argc, char **argv)
{
    using namespace cnv;

    const std::string name = argc > 1 ? argv[1] : "vgg19";
    const auto net = nn::zoo::build(nn::zoo::netFromName(name), 2016);
    std::cout << "design space for " << name << " (1 image)\n";

    // Canonical dadiannao-over-cnv speedup of one image (seed 2016).
    const auto speedupOn = [&](const dadiannao::NodeConfig &node) {
        driver::ExperimentConfig cfg;
        cfg.node = node;
        cfg.images = 1;
        return driver::evaluateNetwork(cfg, *net).speedup();
    };

    {
        sim::Table t({"units", "parallel filters", "baseline Mcycles",
                      "CNV Mcycles", "speedup"});
        for (int units : {4, 8, 16, 32}) {
            dadiannao::NodeConfig cfg;
            cfg.units = units;
            timing::RunOptions opts;
            const auto base = timing::simulateNetwork(
                cfg, *net, timing::Arch::Baseline, opts);
            const auto cnvRun = timing::simulateNetwork(
                cfg, *net, timing::Arch::Cnv, opts);
            t.addRow({std::to_string(units),
                      std::to_string(cfg.parallelFilters()),
                      sim::Table::num(base.totalCycles() / 1e6),
                      sim::Table::num(cnvRun.totalCycles() / 1e6),
                      sim::Table::num(
                          static_cast<double>(base.totalCycles()) /
                          cnvRun.totalCycles())});
        }
        std::cout << "\n-- scaling the node's unit count --\n";
        t.print(std::cout);
    }

    {
        sim::Table t({"NBout entries", "windows in flight", "speedup"});
        for (int nbout : {16, 32, 64, 128, 256}) {
            dadiannao::NodeConfig cfg;
            cfg.nboutEntries = nbout;
            t.addRow({std::to_string(nbout),
                      std::to_string(cfg.windowsInFlight()),
                      sim::Table::num(speedupOn(cfg))});
        }
        std::cout << "\n-- window-synchronisation granularity --\n";
        t.print(std::cout);
    }

    {
        sim::Table t({"assignment", "speedup"});
        const std::pair<dadiannao::LaneAssignment, const char *> rows[] = {
            {dadiannao::LaneAssignment::ZOnly, "ZOnly (strict slices)"},
            {dadiannao::LaneAssignment::XYZHash, "XYZHash"},
            {dadiannao::LaneAssignment::WindowEven,
             "WindowEven (default)"},
        };
        for (const auto &[policy, label] : rows) {
            dadiannao::NodeConfig cfg;
            cfg.laneAssignment = policy;
            t.addRow({label, sim::Table::num(speedupOn(cfg))});
        }
        std::cout << "\n-- brick-to-lane assignment --\n";
        t.print(std::cout);
    }
    return 0;
}
