/**
 * @file
 * Ablation: sensitivity of the headline result to the assumed zero
 * fraction. The per-network Figure 1 values are calibration targets
 * (DESIGN.md §2); this sweep re-calibrates every network to a range
 * of MAC-weighted zero fractions and reports the average CNV
 * speedup, showing how the paper's conclusion degrades gracefully
 * if real sparsity were lower (and grows if higher). The ideal
 * bound 1/(1 - z) is printed for reference; the gap to it is the
 * first layer, non-conv time, and synchronisation stalls.
 */

#include "common.h"
#include "nn/zoo/zoo.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Images, Seed}, 1);

    sim::Table t({"assumed zero fraction", "avg CNV speedup",
                  "ideal bound 1/(1-z)"});
    for (double target : {0.25, 0.35, 0.44, 0.55, 0.65}) {
        double sum = 0.0;
        for (auto id : nn::zoo::allNetworks()) {
            auto net = nn::zoo::build(id, opts.cfg.seed);
            nn::zoo::calibrateSparsity(*net, target);
            net->deriveOutputTargets();
            sum += driver::evaluateNetwork(opts.cfg, *net).speedup();
        }
        t.addRow({sim::Table::pct(target) +
                      (target == 0.44 ? " (paper avg)" : ""),
                  sim::Table::num(sum / 6),
                  sim::Table::num(1.0 / (1.0 - target))});
    }
    bench::emit(opts,
                "Ablation: CNV speedup vs assumed conv-layer zero "
                "fraction",
                t);
    return 0;
}
