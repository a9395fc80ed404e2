/**
 * @file
 * Ablation: dispatcher modelling choices (DESIGN.md §5).
 *
 *  1. Empty-brick cost — the default charges one (NM-bank-limited)
 *     cycle per all-zero brick, matching the paper's worst-case
 *     bandwidth remark; the idealised variant skips them for free.
 *  2. Windows in flight — NBout holds 64 entries = 4 windows of
 *     partial sums; fewer windows in flight means more
 *     synchronisation stalls (Section IV-B5).
 */

#include "common.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Images, Seed, Mem}, 1);

    {
        sim::Table t({"network", "empty brick = 1 cycle (default)",
                      "empty brick free"});
        for (auto id : nn::zoo::allNetworks()) {
            std::vector<std::string> row{nn::zoo::netName(id)};
            for (bool costs : {true, false}) {
                driver::ExperimentConfig cfg = opts.cfg;
                cfg.node.emptyBrickCostsCycle = costs;
                const auto r = driver::evaluateZooNetwork(cfg, id);
                row.push_back(sim::Table::num(r.speedup()));
            }
            t.addRow(std::move(row));
        }
        bench::emit(opts, "Ablation: cost of all-zero bricks", t);
    }

    {
        sim::Table t({"network", "1 window", "2 windows",
                      "4 windows (default)", "8 windows"});
        for (auto id : nn::zoo::allNetworks()) {
            std::vector<std::string> row{nn::zoo::netName(id)};
            for (int nbout : {16, 32, 64, 128}) {
                driver::ExperimentConfig cfg = opts.cfg;
                cfg.node.nboutEntries = nbout;
                const auto r = driver::evaluateZooNetwork(cfg, id);
                row.push_back(sim::Table::num(r.speedup()));
            }
            t.addRow(std::move(row));
        }
        bench::emit(opts,
                    "Ablation: NBout depth (windows in flight between "
                    "synchronisations)",
                    t);
    }
    return 0;
}
