/**
 * @file
 * Figure 9: speedup of CNV over the DaDianNao baseline, with only
 * zero-valued neurons skipped (CNV) and with the lossless dynamic
 * pruning thresholds of Table II also applied (CNV + Pruning).
 * Also reports cnv2 (Cnvlutin2 ineffectual-weight skipping, not in
 * the original figure) alongside, so the artifact captures the full
 * three-architecture comparison.
 */

#include <fstream>

#include "arch/registry.h"
#include "common.h"
#include "driver/trace_pipeline.h"
#include "mem/memory_model.h"
#include "pruning/explore.h"
#include "timing/trace_cache.h"

using namespace cnv;

namespace {

/**
 * Per-network Figure 9 bars. The text states only google (1.24,
 * minimum), cnnS (1.55, maximum) and the 1.37 average; the other
 * bars are read off the figure approximately.
 */
double
paperCnv(nn::zoo::NetId id)
{
    switch (id) {
      case nn::zoo::NetId::Alex: return 1.35;
      case nn::zoo::NetId::Google: return 1.24;
      case nn::zoo::NetId::Nin: return 1.28;
      case nn::zoo::NetId::Vgg19: return 1.40;
      case nn::zoo::NetId::CnnM: return 1.40;
      case nn::zoo::NetId::CnnS: return 1.55;
    }
    return 1.37;
}

double
paperCnvPruned(nn::zoo::NetId id)
{
    // Table II's "Speedup" column.
    switch (id) {
      case nn::zoo::NetId::Alex: return 1.53;
      case nn::zoo::NetId::Google: return 1.37;
      case nn::zoo::NetId::Nin: return 1.39;
      case nn::zoo::NetId::Vgg19: return 1.57;
      case nn::zoo::NetId::CnnM: return 1.56;
      case nn::zoo::NetId::CnnS: return 1.75;
    }
    return 1.52;
}

} // namespace

int
main(int argc, char **argv)
{
    using enum driver::Flag;
    const auto opts = bench::parseFlags(
        argc, argv, {Images, Seed, Mem, Quick, Json, TraceOut});
    const driver::ExperimentConfig &cfg = opts.cfg;
    bench::printConfig(cfg.node);

    pruning::SearchOptions search;
    search.accuracyImages = opts.quick ? 4 : 10;
    search.timingImages = 1;
    search.seed = cfg.seed + 7;

    const auto threeArchs =
        arch::builtin().select("dadiannao,cnv,cnv2");
    sim::Table t({"network", "CNV", "paper CNV (approx)", "CNV2",
                  "CNV banked ovh.", "CNV+Pruning",
                  "paper CNV+Pruning"});
    sim::StatGroup fig("fig09");
    sim::TraceSink trace;
    std::uint32_t tracePid = 1;
    // One trace cache across the main sweep and the banked
    // comparison runs: synthesis keys are memory-model-independent,
    // so the extra runs hit instead of resynthesizing.
    timing::TraceCache cache;
    double sumPlain = 0.0, sumCnv2 = 0.0, sumPruned = 0.0;
    double sumBankedOvh = 0.0;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, cfg.seed);
        std::vector<driver::ArchTimeline> timelines;
        const auto plain = driver::evaluateNetworkArchs(
            cfg, *net, threeArchs, nullptr, &cache,
            opts.traceOut.empty() ? nullptr : &timelines);
        const double cnv2Speedup = plain.speedupOf("dadiannao", "cnv2");

        // Banked-vs-ideal CNV comparison: one extra CNV-only run
        // with the memory model the main sweep did not use, so the
        // artifact always carries both cycle counts regardless of
        // the --mem selection.
        const bool mainBanked = cfg.memKind == mem::Kind::Banked;
        driver::ExperimentConfig altCfg = cfg;
        altCfg.memKind =
            mainBanked ? mem::Kind::Ideal : mem::Kind::Banked;
        const auto alt = driver::evaluateNetworkArchs(
            altCfg, *net, arch::builtin().select("cnv"), nullptr,
            &cache);
        const std::uint64_t cnvIdealCycles =
            (mainBanked ? alt : plain).arch("cnv").cycles;
        const std::uint64_t cnvBankedCycles =
            (mainBanked ? plain : alt).arch("cnv").cycles;
        const double bankedOverhead =
            static_cast<double>(cnvBankedCycles) /
            static_cast<double>(cnvIdealCycles);

        if (!opts.traceOut.empty()) {
            // One timeline per (network, architecture) pair: the
            // sweep's image-0 runs (seed = cfg.seed, like the driver
            // reports), traced in cnv, cnv2, dadiannao pid order.
            for (const char *archId : {"cnv", "cnv2", "dadiannao"}) {
                for (const driver::ArchTimeline &tl : timelines) {
                    if (tl.model->id() == archId)
                        driver::appendNetworkTrace(
                            trace, tl.result, tracePid++,
                            sim::strfmt("{} ({})", archId, net->name()));
                }
            }
        }

        double pruned = plain.speedup();
        if (!opts.quick) {
            auto accNet = nn::zoo::build(id, cfg.seed, cfg.accuracyScale);
            accNet->calibrate();
            const auto point =
                pruning::searchLossless(cfg.node, *net, *accNet, search);
            const auto prunedReport = driver::evaluateNetworkArchs(
                cfg, *net, arch::canonicalPair(), &point.config, &cache);
            pruned = prunedReport.speedup();
        }

        sumPlain += plain.speedup();
        sumCnv2 += cnv2Speedup;
        sumPruned += pruned;
        sumBankedOvh += bankedOverhead;
        t.addRow({nn::zoo::netName(id),
                  sim::Table::num(plain.speedup()),
                  sim::Table::num(paperCnv(id)),
                  sim::Table::num(cnv2Speedup),
                  sim::Table::num(bankedOverhead),
                  opts.quick ? "(skipped)" : sim::Table::num(pruned),
                  sim::Table::num(paperCnvPruned(id))});

        auto &g = fig.addGroup(std::string(nn::zoo::netName(id)));
        g.addCounter("baselineCycles", "baseline cycles over images") +=
            plain.arch("dadiannao").cycles;
        g.addCounter("cnvCycles", "CNV cycles over images") +=
            plain.arch("cnv").cycles;
        g.addCounter("cnv2Cycles", "Cnvlutin2 cycles over images") +=
            plain.arch("cnv2").cycles;
        g.addCounter("cnvBankedCycles",
                     "CNV cycles over images under --mem banked") +=
            cnvBankedCycles;
        g.addScalar("bankedOverhead",
                    "CNV banked-over-ideal cycle ratio") = bankedOverhead;
        g.addScalar("speedup", "measured CNV speedup") = plain.speedup();
        g.addScalar("cnv2Speedup", "measured Cnvlutin2 speedup") =
            cnv2Speedup;
        g.addScalar("paperSpeedup", "paper's Figure 9 bar (approx)") =
            paperCnv(id);
        if (!opts.quick)
            g.addScalar("prunedSpeedup", "measured CNV+Pruning speedup") =
                pruned;
        g.addScalar("paperPrunedSpeedup", "paper's Table II speedup") =
            paperCnvPruned(id);
    }
    t.addRow({"average", sim::Table::num(sumPlain / 6), "1.37",
              sim::Table::num(sumCnv2 / 6),
              sim::Table::num(sumBankedOvh / 6),
              opts.quick ? "(skipped)" : sim::Table::num(sumPruned / 6),
              "1.52"});
    fig.addScalar("averageSpeedup", "arithmetic mean of CNV speedups") =
        sumPlain / 6;
    fig.addScalar("averageCnv2Speedup",
                  "arithmetic mean of Cnvlutin2 speedups") = sumCnv2 / 6;
    fig.addScalar("averageBankedOverhead",
                  "arithmetic mean of CNV banked-over-ideal ratios") =
        sumBankedOvh / 6;
    if (!opts.quick)
        fig.addScalar("averagePrunedSpeedup",
                      "arithmetic mean of CNV+Pruning speedups") =
            sumPruned / 6;
    bench::emit(opts, "Figure 9: speedup of CNV over the baseline", t);
    bench::writeFigureArtifact(opts, "fig09_speedup", fig);
    if (!opts.traceOut.empty()) {
        std::ofstream os(opts.traceOut);
        if (!os) {
            std::cerr << "cannot open trace file " << opts.traceOut
                      << '\n';
            return 1;
        }
        trace.writeJson(os, {sim::TraceArg("tool", "bench_fig09_speedup"),
                             sim::TraceArg("seed", cfg.seed)});
        std::cout << "wrote " << trace.events().size()
                  << " trace events to " << opts.traceOut << '\n';
    }
    return 0;
}
