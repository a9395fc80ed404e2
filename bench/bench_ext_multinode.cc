/**
 * @file
 * Extension study: multi-node scaling (Section IV-A's "multiple
 * nodes" deployment). Filters partition across nodes, so compute
 * scales until layers run out of filters (N <= 256 x nodes) or the
 * inter-node halo exchange becomes the bottleneck. An Amdahl
 * effect appears at large system sizes: CNV finishes its compute
 * sooner, so the (arch-independent) exchange is exposed earlier and
 * the zero-skipping advantage erodes — faster cores need faster
 * links.
 */

#include "common.h"
#include "timing/multinode.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(argc, argv, {Seed});

    for (auto arch : {timing::Arch::Baseline, timing::Arch::Cnv}) {
        sim::Table t({"network", "2 nodes", "4 nodes", "8 nodes",
                      "16 nodes"});
        for (auto id : nn::zoo::allNetworks()) {
            const auto net = nn::zoo::build(id, opts.cfg.seed);
            std::vector<std::string> row{nn::zoo::netName(id)};
            for (int nodes : {2, 4, 8, 16}) {
                timing::MultiNodeOptions mn;
                mn.nodes = nodes;
                row.push_back(sim::Table::num(timing::multiNodeScaling(
                    dadiannao::NodeConfig{}, mn, *net, arch, opts.cfg.seed)));
            }
            t.addRow(std::move(row));
        }
        bench::emit(opts,
                    std::string("Extension: scaling over a single node, ") +
                        timing::archName(arch),
                    t);
    }

    // CNV speedup over the baseline at each system size.
    sim::Table t({"network", "1 node", "4 nodes", "16 nodes"});
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, opts.cfg.seed);
        std::vector<std::string> row{nn::zoo::netName(id)};
        for (int nodes : {1, 4, 16}) {
            timing::MultiNodeOptions mn;
            mn.nodes = nodes;
            timing::RunOptions ropts;
            ropts.imageSeed = opts.cfg.seed;
            const auto base = timing::simulateMultiNode(
                dadiannao::NodeConfig{}, mn, *net,
                timing::Arch::Baseline, ropts);
            const auto cnvRun = timing::simulateMultiNode(
                dadiannao::NodeConfig{}, mn, *net, timing::Arch::Cnv,
                ropts);
            row.push_back(sim::Table::num(
                static_cast<double>(base.totalCycles()) /
                static_cast<double>(cnvRun.totalCycles())));
        }
        t.addRow(std::move(row));
    }
    bench::emit(opts, "Extension: CNV speedup at each system size", t);
    return 0;
}
