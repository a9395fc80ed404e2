#include "driver/stats_report.h"

#include <utility>

#include "driver/trace_pipeline.h"
#include "mem/memory_model.h"
#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/stats_export.h"
#include "timing/network_model.h"

namespace cnv::driver {

namespace {

void
fillActivity(sim::StatGroup &g, const dadiannao::Activity &a)
{
    g.addCounter("other", "lane events in non-conv layers") += a.other;
    g.addCounter("conv1", "lane events in the first conv layer") +=
        a.conv1;
    g.addCounter("zero", "lane events processing zero neurons") += a.zero;
    g.addCounter("nonZero", "lane events processing non-zero neurons") +=
        a.nonZero;
    g.addCounter("stall", "lane events idle on window sync") += a.stall;
}

void
fillEnergy(sim::StatGroup &g, const dadiannao::EnergyCounters &e)
{
    g.addCounter("sbReads", "16-synapse SB sublane reads") += e.sbReads;
    g.addCounter("nmReads", "16-neuron-wide NM reads") += e.nmReads;
    g.addCounter("nmWrites", "16-neuron-wide NM writes") += e.nmWrites;
    g.addCounter("nbinReads", "NBin entry reads") += e.nbinReads;
    g.addCounter("nbinWrites", "NBin entry writes") += e.nbinWrites;
    g.addCounter("multOps", "multiplications performed") += e.multOps;
    g.addCounter("addOps", "adder-tree additions") += e.addOps;
    g.addCounter("encoderOps", "encoder neuron examinations") +=
        e.encoderOps;
    g.addCounter("offchipBytes", "bytes streamed from off-chip") +=
        e.offchipBytes;
}

void
fillMicro(sim::StatGroup &g, const dadiannao::MicroTrace &m,
          bool memModelled)
{
    g.addCounter("laneBusyCycles",
                 "per-unit lane-cycles doing datapath work") +=
        m.laneBusyCycles;
    g.addCounter("laneIdleCycles",
                 "per-unit lane-cycles idle (sync or memory)") +=
        m.laneIdleCycles;
    sim::StatGroup &stalls = g.addGroup("stalls");
    for (int i = 0; i < sim::kStallReasonCount; ++i) {
        const auto r = static_cast<sim::StallReason>(i);
        // The memory stall reasons exist only on `--mem banked` runs;
        // omitting them otherwise keeps ideal reports byte-identical
        // to pre-mem builds.
        if (memModelled || !sim::isMemoryStallReason(r))
            stalls.addCounter(sim::stallReasonName(r),
                              sim::stallReasonDescription(r)) +=
                m.stalls[r];
    }
    g.addCounter("encoderBusyCycles",
                 "cycles the serial encoder spent converting") +=
        m.encoderBusyCycles;
    g.addCounter("encoderBricks", "ZFNAf bricks the encoder produced") +=
        m.encoderBricks;
    g.addFormula("laneUtilisation",
                 "busy fraction of modelled lane-cycles",
                 [m] { return m.laneUtilisation(); });
}

/** Idle lane-cycles attributed to the memory hierarchy. */
std::uint64_t
memStallCycles(const sim::StallCycles &s)
{
    std::uint64_t sum = 0;
    for (int i = 0; i < sim::kStallReasonCount; ++i) {
        const auto r = static_cast<sim::StallReason>(i);
        if (sim::isMemoryStallReason(r))
            sum += s[r];
    }
    return sum;
}

/** Memory-bound: over half the layer's lane-cycles wait on memory. */
bool
isMemoryBound(const dadiannao::MicroTrace &m)
{
    const std::uint64_t total = m.laneBusyCycles + m.laneIdleCycles;
    return total > 0 && memStallCycles(m.stalls) * 2 > total;
}

/** The mem::Counters fields every memory block reports, in order:
 *  the stat tree's "memory" group and summary.memory.<arch id>. */
struct MemField
{
    const char *name;
    const char *desc;
    std::uint64_t mem::Counters::*member;
};

constexpr MemField kMemFields[] = {
    {"nmAccesses", "brick-granular NM reads issued",
     &mem::Counters::nmAccesses},
    {"nmConflictCycles", "extra cycles serialising on NM bank conflicts",
     &mem::Counters::nmConflictCycles},
    {"gbHits", "global-buffer hits", &mem::Counters::gbHits},
    {"gbMisses", "global-buffer misses", &mem::Counters::gbMisses},
    {"gbEvictions", "global-buffer capacity evictions",
     &mem::Counters::gbEvictions},
    {"dramBytes", "off-chip bytes transferred", &mem::Counters::dramBytes},
    {"dramCycles", "DRAM channel busy cycles", &mem::Counters::dramCycles},
};

void
fillMemory(sim::StatGroup &g, const mem::Counters &mem,
           const dadiannao::MicroTrace &micro)
{
    for (const MemField &f : kMemFields)
        g.addCounter(f.name, f.desc) += mem.*f.member;
    const std::uint64_t memStall = memStallCycles(micro.stalls);
    const std::uint64_t total =
        micro.laneBusyCycles + micro.laneIdleCycles;
    g.addFormula("memStallShare",
                 "fraction of lane-cycles idle on the memory hierarchy",
                 [memStall, total] {
                     return total > 0 ? static_cast<double>(memStall) /
                                            static_cast<double>(total)
                                      : 0.0;
                 });
}

/** Memory-bound and compute-bound layer counts of one architecture's
 *  image-0 timeline (the summary.memory split). */
std::pair<std::uint64_t, std::uint64_t>
boundLayers(const RunReport &report, const ArchAggregate &a)
{
    std::uint64_t memoryBound = 0, computeBound = 0;
    for (const ArchTimeline &t : report.timelines) {
        if (t.model != a.model)
            continue;
        for (const dadiannao::LayerResult &l : t.result.layers)
            (isMemoryBound(l.micro) ? memoryBound : computeBound)++;
    }
    return {memoryBound, computeBound};
}

/** Every field of the report's summary, in report order: the one
 *  list the JSON "summary" object and the CSV summary rows share. */
std::vector<sim::Field>
summaryFields(const RunReport &report)
{
    const NetworkReport &agg = report.aggregate;
    std::vector<sim::Field> f;
    f.push_back({"images", static_cast<std::uint64_t>(agg.images),
                 "images aggregated"});
    for (const ArchAggregate &a : agg.archs)
        f.push_back({"archs." + a.id() + ".cycles", a.cycles,
                     a.id() + " cycles summed over images"});
    const timing::TraceCache::Stats &cs = report.cacheStats;
    f.push_back({"cache.tensorHits", cs.tensorHits,
                 "trace-cache tensor lookups served from cache"});
    f.push_back({"cache.tensorMisses", cs.tensorMisses,
                 "trace-cache tensors synthesized or loaded"});
    f.push_back({"cache.countMapHits", cs.countMapHits,
                 "trace-cache count-map lookups served from cache"});
    f.push_back({"cache.countMapMisses", cs.countMapMisses,
                 "trace-cache count maps computed"});
    // Memory-hierarchy summary: aggregate counters over all images
    // plus the single-image timeline's memory-bound vs compute-bound
    // layer split. Only present on `--mem banked` runs.
    for (const ArchAggregate &a : agg.archs) {
        if (!a.memModelled)
            continue;
        const std::string p = "memory." + a.id() + ".";
        for (const MemField &m : kMemFields)
            f.push_back({p + m.name, a.mem.*m.member, m.desc});
        const auto [memoryBound, computeBound] = boundLayers(report, a);
        f.push_back(
            {p + "memoryBoundLayers", memoryBound,
             "image-0 layers idle on memory over half their lane-cycles"});
        f.push_back({p + "computeBoundLayers", computeBound,
                     "image-0 layers that are not memory-bound"});
    }
    // Legacy two-architecture trio: kept whenever the canonical pair
    // is part of the selection so existing consumers keep parsing.
    const ArchAggregate *base = agg.findArch("dadiannao");
    const ArchAggregate *cnvAgg = agg.findArch("cnv");
    if (base != nullptr && cnvAgg != nullptr) {
        f.push_back({"baselineCycles", base->cycles,
                     "baseline cycles summed over images"});
        f.push_back({"cnvCycles", cnvAgg->cycles,
                     "CNV cycles summed over images"});
        f.push_back({"speedup", agg.speedup(), "baseline/CNV cycle ratio"});
    }
    return f;
}

} // namespace

std::unique_ptr<sim::StatGroup>
buildStats(const dadiannao::NetworkResult &result,
           const arch::ArchModel &model, const power::PowerParams &params)
{
    auto root = std::make_unique<sim::StatGroup>(result.architecture);

    auto &cycles = root->addCounter("cycles", "total execution cycles");
    cycles += result.totalCycles();

    const dadiannao::Activity activity = result.totalActivity();
    fillActivity(root->addGroup("activity"), activity);
    fillEnergy(root->addGroup("energy"), result.totalEnergy());
    fillMicro(root->addGroup("micro"), result.totalMicro(),
              result.memModelled);
    if (result.memModelled)
        fillMemory(root->addGroup("memory"), result.totalMem(),
                   result.totalMicro());

    // Derived quantities the paper reasons about.
    const double total = static_cast<double>(activity.total());
    root->addFormula("zeroShare",
                     "fraction of lane events processing zeros",
                     [activity, total] {
                         return total > 0 ? activity.zero / total : 0.0;
                     });
    root->addFormula("laneUtilisation",
                     "fraction of lane events doing non-zero work",
                     [activity, total] {
                         return total > 0
                             ? (activity.nonZero + activity.conv1 +
                                activity.other) / total
                             : 0.0;
                     });

    const auto metrics =
        model.metrics(result.totalEnergy(), result.totalCycles(), params);
    auto &pw = root->addGroup("power");
    const auto breakdown =
        model.power(result.totalEnergy(), result.totalCycles(), params);
    pw.addScalar("sbWatts", "SB power (static + dynamic)") =
        breakdown.sbStatic + breakdown.sbDynamic;
    pw.addScalar("nmWatts", "NM power (static + dynamic)") =
        breakdown.nmStatic + breakdown.nmDynamic;
    pw.addScalar("logicWatts", "logic power (static + dynamic)") =
        breakdown.logicStatic + breakdown.logicDynamic;
    pw.addScalar("sramWatts", "SRAM power (static + dynamic)") =
        breakdown.sramStatic + breakdown.sramDynamic;
    pw.addScalar("totalWatts", "total average power") = breakdown.total();
    pw.addScalar("seconds", "execution time") = metrics.seconds;
    pw.addScalar("joules", "energy") = metrics.joules;
    pw.addScalar("edp", "power x delay (paper's EDP arithmetic)") =
        metrics.edp;
    pw.addScalar("ed2p", "power x delay^2") = metrics.ed2p;

    auto &layers = root->addGroup("layers");
    int index = 0;
    for (const dadiannao::LayerResult &layer : result.layers) {
        auto &g = layers.addGroup(layerStatKey(index++, layer.name));
        g.addCounter("cycles", "layer cycles") += layer.cycles;
        g.addCounter("startCycle",
                     "layer's first cycle on the run timeline") +=
            layer.startCycle;
        fillActivity(g.addGroup("activity"), layer.activity);
        fillEnergy(g.addGroup("energy"), layer.energy);
        fillMicro(g.addGroup("micro"), layer.micro, result.memModelled);
        if (result.memModelled) {
            fillMemory(g.addGroup("memory"), layer.mem, layer.micro);
            g.addFormula("memoryBound",
                         "1 when over half the layer's lane-cycles "
                         "wait on the memory hierarchy",
                         [bound = isMemoryBound(layer.micro)] {
                             return bound ? 1.0 : 0.0;
                         });
        }
    }
    return root;
}

RunReport
buildRunReport(const ExperimentConfig &cfg, const nn::Network &net,
               const std::vector<const arch::ArchModel *> &archs,
               const nn::PruneConfig *prune)
{
    CNV_ASSERT(!archs.empty(), "need at least one architecture");
    RunReport report;
    report.manifest = makeManifest("cnvsim", net.name(), cfg);

    timing::TraceCache cache;
    report.aggregate =
        evaluateNetworkArchs(cfg, net, archs, prune, &cache, &report.timelines);
    report.cacheStats = cache.stats();
    return report;
}

RunReport
buildRunReport(const ExperimentConfig &cfg, const nn::Network &net,
               const nn::PruneConfig *prune)
{
    return buildRunReport(cfg, net, arch::canonicalPair(), prune);
}

void
writeReportJson(const RunReport &report, std::ostream &os)
{
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cnv-report-v1");
    w.key("manifest");
    report.manifest.writeJson(w);

    w.key("architectures").beginObject();
    for (const ArchTimeline &t : report.timelines) {
        const auto tree = buildStats(t.result, *t.model);
        w.key(tree->name());
        sim::exportJson(*tree, w);
    }
    w.endObject();

    w.key("summary");
    sim::writeJsonFields(summaryFields(report), w);

    // Host-side telemetry (wall-clock only, simulated results are
    // unaffected); determinism checks strip this block before
    // comparing reports byte for byte.
    w.key("hostProfile");
    sim::writeHostProfile(sim::metrics().snapshot(), w);

    w.endObject();
    os << '\n';
    CNV_ASSERT(w.complete(), "report document left unbalanced");
}

void
writeReportCsv(const RunReport &report, std::ostream &os)
{
    os << "path,kind,value,description\n";
    sim::writeCsvFields(report.manifest.fields(), "manifest", os);
    for (const ArchTimeline &t : report.timelines)
        sim::exportCsv(*buildStats(t.result, *t.model), os, "",
                       /*header=*/false);
    sim::writeCsvFields(summaryFields(report), "summary", os);
}

} // namespace cnv::driver
