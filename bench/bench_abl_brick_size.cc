/**
 * @file
 * Ablation: ZFNAf brick size (DESIGN.md §5).
 *
 * The brick size sets the offset-field width (storage overhead: a
 * 16-neuron brick needs 4-bit offsets, +25% NM capacity) and the
 * skip granularity. Smaller bricks skip zeros at finer grain but
 * pay wider relative offset overhead and fewer neuron lanes per
 * unit; larger bricks amortise offsets but coarsen work
 * distribution. Lanes scale with the brick size (one lane drains
 * one brick), so each point is compared against a baseline with the
 * same lane count.
 */

#include "common.h"
#include "sim/error.h"
#include "sim/logging.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Images, Seed, Mem}, 1);

    sim::Table t({"brick size", "offset bits", "NM capacity overhead",
                  "avg CNV speedup vs same-lane baseline"});
    for (int brick : {4, 8, 16, 32}) {
        driver::ExperimentConfig cfg = opts.cfg;
        cfg.node.brickSize = brick;
        cfg.node.lanes = brick;
        cfg.node.nmBanks = brick; // one bank per lane

        double sum = 0.0;
        int n = 0, skipped = 0;
        for (auto id : nn::zoo::allNetworks()) {
            const auto net = nn::zoo::build(id, cfg.seed);
            // Grouped convolutions whose group depth is not a brick
            // multiple (alex at brick 32) are skipped quietly.
            const auto verbosity = sim::verbosity();
            sim::setVerbosity(sim::Verbosity::Silent);
            try {
                const double s =
                    driver::evaluateNetwork(cfg, *net).speedup();
                sim::setVerbosity(verbosity);
                sum += s;
                ++n;
            } catch (const sim::FatalError &) {
                sim::setVerbosity(verbosity);
                ++skipped;
            }
        }
        sum /= n;
        (void)skipped;
        int offsetBits = 0;
        while ((1 << offsetBits) < brick)
            ++offsetBits;
        offsetBits = std::max(offsetBits, 1);
        t.addRow({std::to_string(brick) + (brick == 16 ? " (paper)" : ""),
                  std::to_string(offsetBits),
                  sim::Table::pct(offsetBits / 16.0),
                  sim::Table::num(sum)});
    }
    bench::emit(opts, "Ablation: ZFNAf brick size", t);
    return 0;
}
