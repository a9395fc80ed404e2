/**
 * @file
 * Extension study (Section VII's "broader applicability", off by
 * default): applying CNV-style zero skipping to fully-connected
 * layers as well. FC inputs are post-ReLU conv/pool outputs with
 * comparable sparsity, and a zero activation's synapse column never
 * needs to leave off-chip memory — so FC layers shrink in both
 * compute and memory time. The effect on whole-network speedup is
 * bounded by the FC share of runtime (small for conv-dominated
 * networks, larger for alex/cnnM/cnnS with their 4096-wide stacks).
 */

#include "common.h"

using namespace cnv;

namespace {

/** "+x.xx": appended rather than `"+" + std::string`, which trips
 *  a GCC 12 -Wrestrict false positive. */
std::string
plus(double delta)
{
    std::string s = "+";
    s += sim::Table::num(delta);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Images, Seed, Mem}, 1);

    sim::Table t({"network", "CNV (conv only, paper)",
                  "CNV + FC skipping", "delta"});
    double sums[2] = {0, 0};
    for (auto id : nn::zoo::allNetworks()) {
        double speedups[2];
        int i = 0;
        for (bool fcSkip : {false, true}) {
            driver::ExperimentConfig cfg = opts.cfg;
            cfg.node.cnvSkipsFcLayers = fcSkip;
            const auto r = driver::evaluateZooNetwork(cfg, id);
            speedups[i] = r.speedup();
            sums[i] += r.speedup();
            ++i;
        }
        t.addRow({nn::zoo::netName(id), sim::Table::num(speedups[0]),
                  sim::Table::num(speedups[1]),
                  plus(speedups[1] - speedups[0])});
    }
    t.addRow({"average", sim::Table::num(sums[0] / 6),
              sim::Table::num(sums[1] / 6),
              plus((sums[1] - sums[0]) / 6)});
    bench::emit(opts,
                "Extension: CNV zero skipping applied to "
                "fully-connected layers",
                t);
    return 0;
}
