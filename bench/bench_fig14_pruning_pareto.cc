/**
 * @file
 * Figure 14: accuracy versus speedup trade-off under per-layer
 * dynamic pruning thresholds. For each network the explored
 * configurations' pareto frontier is printed; the paper's
 * qualitative shape is an initial lossless region followed by
 * exponential accuracy decay, with ~1.60x average speedup at <=1%
 * relative accuracy loss and ~1.87x at <=10%.
 */

#include <algorithm>

#include "common.h"
#include "pruning/explore.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Seed, Quick});
    const driver::ExperimentConfig &cfg = opts.cfg;

    pruning::SearchOptions search;
    search.accuracyImages = opts.quick ? 4 : 10;
    search.timingImages = 1;
    search.seed = cfg.seed + 7;
    search.levels = {0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

    double sum1pct = 0.0, sum10pct = 0.0;
    int n = 0;

    for (auto id : nn::zoo::allNetworks()) {
        if (opts.quick && id != nn::zoo::NetId::Alex)
            continue;
        const auto net = nn::zoo::build(id, cfg.seed);
        auto accNet = nn::zoo::build(id, cfg.seed, cfg.accuracyScale);
        accNet->calibrate();

        const auto points =
            pruning::tradeoffSweep(cfg.node, *net, *accNet, search);
        const auto frontier = pruning::paretoFrontier(points);

        sim::Table t({"speedup", "relative accuracy"});
        for (const auto &pt : frontier) {
            t.addRow({sim::Table::num(pt.speedup),
                      sim::Table::pct(pt.relativeAccuracy)});
        }
        bench::emit(opts,
                    std::string("Figure 14 pareto frontier: ") +
                        nn::zoo::netName(id),
                    t);

        // Best speedup within an accuracy-loss budget: rerun the
        // greedy exploration with a relaxed floor (the paper's
        // procedure), also folding in anything better the sweep saw.
        auto bestWithin = [&](double floor) {
            pruning::SearchOptions relaxed = search;
            relaxed.accuracyFloor = floor;
            // Budgeted searches tolerate proportionally more logit
            // distortion (the proxy's stand-in for accuracy loss).
            relaxed.distortionTolerance = 0.05 + (1.0 - floor) * 0.3;
            double best = pruning::searchLossless(cfg.node, *net, *accNet,
                                                  relaxed)
                              .speedup;
            for (const auto &pt : points) {
                if (pt.relativeAccuracy + 1e-9 >= floor)
                    best = std::max(best, pt.speedup);
            }
            return best;
        };
        sum1pct += bestWithin(0.99);
        sum10pct += bestWithin(0.90);
        ++n;
    }

    sim::Table summary({"budget", "avg best speedup", "paper"});
    summary.addRow({"<=1% relative accuracy loss",
                    sim::Table::num(sum1pct / n), "1.60"});
    summary.addRow({"<=10% relative accuracy loss",
                    sim::Table::num(sum10pct / n), "1.87"});
    bench::emit(opts, "Figure 14 summary", summary);
    return 0;
}
