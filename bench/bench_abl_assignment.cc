/**
 * @file
 * Ablation: brick-to-lane assignment policies (DESIGN.md §5).
 *
 * ZOnly is the strict reading of Section IV-B2 ("slices are
 * complete vertical chunks"); it starves lanes on layers whose
 * depth has fewer bricks than lanes. XYZHash keeps the bank mapping
 * array-static but collides on adjacent window cells. WindowEven
 * (the default) divides each window group's bricks evenly, matching
 * the paper's reported speedups.
 */

#include "common.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Images, Seed, Mem}, 1);

    sim::Table t({"network", "ZOnly", "XYZHash", "WindowEven (default)"});
    double sums[3] = {0, 0, 0};
    for (auto id : nn::zoo::allNetworks()) {
        std::vector<std::string> row{nn::zoo::netName(id)};
        int i = 0;
        for (auto policy : {dadiannao::LaneAssignment::ZOnly,
                            dadiannao::LaneAssignment::XYZHash,
                            dadiannao::LaneAssignment::WindowEven}) {
            driver::ExperimentConfig cfg = opts.cfg;
            cfg.node.laneAssignment = policy;
            const auto r = driver::evaluateZooNetwork(cfg, id);
            sums[i++] += r.speedup();
            row.push_back(sim::Table::num(r.speedup()));
        }
        t.addRow(std::move(row));
    }
    t.addRow({"average", sim::Table::num(sums[0] / 6),
              sim::Table::num(sums[1] / 6), sim::Table::num(sums[2] / 6)});
    bench::emit(opts,
                "Ablation: CNV speedup under different brick-to-lane "
                "assignments",
                t);
    return 0;
}
