/**
 * @file
 * cnvsim — the command-line front end to the simulator.
 *
 *   cnvsim <command> [network] [options]
 *
 * The commands are the kCommands table below; each names the flags
 * its code reads. The flags themselves are defined once, in the
 * table of driver/cli.h. `cnvsim` without arguments prints both. A
 * flag a command does not read, or a malformed value, exits 2 with a
 * diagnostic; a runtime FatalError exits 1.
 *
 * Every network command takes its network as a positional argument
 * (`cnvsim run nin ...`) or via --net (`cnvsim run --net nin ...`).
 * The report, trace-event, stall and perf schemas are documented in
 * docs/observability.md.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arch/registry.h"
#include "driver/cli.h"
#include "driver/driver.h"
#include "driver/run_manifest.h"
#include "driver/stats_report.h"
#include "driver/trace_pipeline.h"
#include "nn/trace.h"
#include "tensor/serialize.h"
#include "zfnaf/format.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "ref/baseline_node.h"
#include "ref/cnv_node.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/stats_export.h"
#include "sim/table.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;

using driver::CliOptions;
using enum driver::Flag;

/** Open an output file named on the command line; fatal on failure. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        CNV_FATAL("cannot open output file '{}'", path);
    return os;
}

/** Write the run report to the paths requested on the command line. */
void
writeReports(const CliOptions &opts, driver::RunReport &report)
{
    if (opts.reportJson.empty() && opts.reportCsv.empty())
        return;
    report.manifest.wallSeconds = sim::metrics().secondsSinceEnable();
    if (!opts.reportJson.empty()) {
        auto os = openOutput(opts.reportJson);
        driver::writeReportJson(report, os);
        std::cout << "wrote JSON report to " << opts.reportJson << '\n';
    }
    if (!opts.reportCsv.empty()) {
        auto os = openOutput(opts.reportCsv);
        driver::writeReportCsv(report, os);
        std::cout << "wrote CSV report to " << opts.reportCsv << '\n';
    }
}

/**
 * Write the standalone cnv-perf-v1 telemetry artifact requested with
 * --perf-json: the run manifest plus the hostProfile object (same
 * emitter as the report section). Called once, after the command
 * body, so phase timers and cache counters cover the whole run. The
 * snapshot comes first: opening the artifact and building its
 * manifest are not part of the run it describes.
 */
void
writePerfJson(const CliOptions &opts, const std::string &network)
{
    if (opts.perfJson.empty())
        return;
    const sim::MetricsRegistry::Snapshot snap = sim::metrics().snapshot();
    auto os = openOutput(opts.perfJson);
    driver::RunManifest manifest =
        driver::makeManifest("cnvsim", network, opts.cfg);
    manifest.wallSeconds = static_cast<double>(snap.sinceEnableNanos) * 1e-9;
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cnv-perf-v1");
    w.key("manifest");
    manifest.writeJson(w);
    w.key("hostProfile");
    sim::writeHostProfile(snap, w);
    w.endObject();
    w.complete();
    os << '\n';
    std::cout << "wrote perf profile to " << opts.perfJson << '\n';
}

int
cmdList(const CliOptions &)
{
    sim::Table t({"network", "conv layers", "conv GMACs",
                  "zero-operand target", "input"});
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 1);
        const auto in = net->node(0).outShape;
        t.addRow({nn::zoo::netName(id),
                  std::to_string(net->convLayerCount()),
                  sim::Table::num(net->totalConvMacs() / 1e9),
                  sim::Table::pct(nn::zoo::zeroOperandTarget(id)),
                  sim::strfmt("{}x{}x{}", in.x, in.y, in.z)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdArchs(const CliOptions &opts)
{
    if (opts.ids) {
        // Machine-readable listing for scripts (the docs-coverage
        // check diffs this against docs/architectures.md sections).
        for (const auto &model : arch::builtin().models())
            std::cout << model.id() << '\n';
        return 0;
    }
    const dadiannao::NodeConfig base;
    sim::Table t({"id", "architecture", "brick", "lanes", "NM banks",
                  "area mm^2"});
    for (const auto &model : arch::builtin().models()) {
        const auto cfg = model.nodeConfig(base);
        t.addRow({model.id(), model.displayName(),
                  std::to_string(cfg.brickSize),
                  std::to_string(cfg.lanes), std::to_string(cfg.nmBanks),
                  sim::Table::num(model.area().total())});
    }
    t.print(std::cout);
    std::cout << "\nselect with `cnvsim run <net> --arch "
                 "dadiannao,cnv,...` (report sections are keyed by "
                 "id).\n";
    return 0;
}

int
cmdRun(const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.cfg;
    std::unique_ptr<nn::Network> net;
    std::vector<const arch::ArchModel *> archs;
    {
        const sim::ScopedPhase phase("build");
        net = nn::zoo::build(nn::zoo::netFromName(opts.net), cfg.seed);
        archs = arch::builtin().select(opts.archs);
    }
    const auto &ref = *archs.front();

    // One pass over the (walk group x image) grid yields the aggregate and
    // the image-0 timelines that --layers, --stats and the reports read.
    driver::RunReport run;
    {
        const sim::ScopedPhase phase("timing");
        run = driver::buildRunReport(cfg, *net, archs);
    }
    const std::vector<driver::ArchTimeline> &timelines = run.timelines;

    if (opts.layers) {
        std::vector<std::string> header{"layer"};
        for (const arch::ArchModel *model : archs)
            header.push_back(model->id() + " cycles");
        for (std::size_t a = 1; a < archs.size(); ++a)
            header.push_back(archs[a]->id() + " speedup");
        sim::Table t(header);
        const auto &refLayers = timelines.front().result.layers;
        for (std::size_t i = 0; i < refLayers.size(); ++i) {
            bool allZero = true;
            std::vector<std::string> row{refLayers[i].name};
            for (const driver::ArchTimeline &tl : timelines) {
                const auto &layer = tl.result.layers[i];
                allZero &= layer.cycles == 0;
                row.push_back(sim::Table::intNum(layer.cycles));
            }
            for (std::size_t a = 1; a < timelines.size(); ++a) {
                const auto cycles = timelines[a].result.layers[i].cycles;
                row.push_back(
                    cycles ? sim::Table::num(
                                 static_cast<double>(refLayers[i].cycles) /
                                 static_cast<double>(cycles))
                           : "-");
            }
            if (!allZero)
                t.addRow(row);
        }
        t.print(std::cout);
    }

    const driver::NetworkReport &report = run.aggregate;
    const sim::ScopedPhase reportPhase("report");
    std::cout << "\n" << net->name() << " over " << cfg.images
              << " image(s):\n";
    sim::Table t({"architecture", "cycles",
                  "speedup vs " + ref.id()});
    for (const driver::ArchAggregate &a : report.archs)
        t.addRow({a.id(), sim::Table::intNum(a.cycles),
                  a.model == &ref
                      ? "1.00"
                      : sim::Table::num(
                            report.speedupOf(ref.id(), a.id()))});
    t.print(std::cout);

    if (opts.stats)
        for (const driver::ArchTimeline &tl : timelines)
            driver::buildStats(tl.result, *tl.model)->dump(std::cout);

    writeReports(opts, run);
    // Free the run and the network inside the phase: their teardown
    // is wall time of the command as well.
    run = {};
    net.reset();
    return 0;
}

int
cmdPower(const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.cfg;
    std::unique_ptr<nn::Network> net;
    std::vector<const arch::ArchModel *> archs;
    {
        const sim::ScopedPhase phase("build");
        archs = arch::builtin().select(opts.archs);
        net = nn::zoo::build(nn::zoo::netFromName(opts.net), cfg.seed);
    }
    const auto &ref = *archs.front();
    driver::NetworkReport report;
    {
        const sim::ScopedPhase phase("timing");
        report = driver::evaluateNetworkArchs(cfg, *net, archs);
    }

    const sim::ScopedPhase powerPhase("power");
    std::vector<power::PowerBreakdown> pw;
    std::vector<power::RunMetrics> mx;
    for (const driver::ArchAggregate &a : report.archs) {
        pw.push_back(a.model->power(a.energy, a.cycles));
        mx.push_back(a.model->metrics(a.energy, a.cycles));
    }

    std::vector<std::string> header{"metric"};
    for (const arch::ArchModel *model : archs)
        header.push_back(model->id());
    for (std::size_t a = 1; a < archs.size(); ++a)
        header.push_back(ref.id() + "/" + archs[a]->id());
    sim::Table t(header);
    auto row = [&](const char *name, auto metric) {
        std::vector<std::string> cells{name};
        for (std::size_t a = 0; a < archs.size(); ++a)
            cells.push_back(sim::Table::num(metric(a), 4));
        for (std::size_t a = 1; a < archs.size(); ++a)
            cells.push_back(sim::Table::num(metric(0) / metric(a), 3));
        t.addRow(cells);
    };
    row("average watts",
        [&](std::size_t a) { return pw[a].total(); });
    row("seconds", [&](std::size_t a) { return mx[a].seconds; });
    row("joules", [&](std::size_t a) { return mx[a].joules; });
    row("EDP (P x D)", [&](std::size_t a) { return mx[a].edp; });
    row("ED^2P (P x D^2)", [&](std::size_t a) { return mx[a].ed2p; });
    t.print(std::cout);
    return 0;
}

int
cmdPrune(const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.cfg;
    std::unique_ptr<nn::Network> fullNet;
    std::unique_ptr<nn::Network> accNet;
    {
        const sim::ScopedPhase phase("build");
        const auto id = nn::zoo::netFromName(opts.net);
        fullNet = nn::zoo::build(id, cfg.seed);
        accNet = nn::zoo::build(id, cfg.seed, cfg.accuracyScale);
    }
    {
        const sim::ScopedPhase phase("calibrate");
        accNet->calibrate();
    }

    dadiannao::NodeConfig node;
    pruning::SearchOptions search;
    search.accuracyImages = std::max(6, cfg.images * 3);
    search.timingImages = 1;
    search.seed = cfg.seed + 7;
    search.accuracyFloor = opts.floor;

    pruning::ExplorationPoint point;
    {
        const sim::ScopedPhase phase("search");
        point = pruning::searchLossless(node, *fullNet, *accNet, search);
    }
    std::cout << "thresholds:";
    for (std::int32_t t : point.config.thresholds)
        std::cout << ' ' << t;
    std::cout << "\nspeedup " << sim::Table::num(point.speedup)
              << "x at relative accuracy "
              << sim::Table::pct(point.relativeAccuracy) << '\n';
    return 0;
}

int
cmdZfnaf(const CliOptions &opts)
{
    const std::uint64_t seed = opts.cfg.seed;
    const auto net = nn::zoo::build(nn::zoo::netFromName(opts.net), seed);
    sim::Table t({"conv layer", "input", "zero", "avg nz/brick",
                  "empty bricks", "ZFNAf bits vs dense",
                  "offset-only vs dense"});
    for (int nodeId : net->convNodeIds()) {
        const nn::Node &n = net->node(nodeId);
        const auto in =
            nn::synthesizeConvInput(*net, nodeId, seed + 1);
        const auto enc = zfnaf::encode(in);
        std::size_t empty = 0;
        for (int y = 0; y < in.shape().y; ++y)
            for (int x = 0; x < in.shape().x; ++x)
                for (int b = 0; b < enc.bricksPerColumn(); ++b)
                    empty += enc.nonZeroCount(x, y, b) == 0;
        const double bricks = static_cast<double>(enc.brickCount());
        t.addRow({n.name,
                  sim::strfmt("{}x{}x{}", in.shape().x, in.shape().y,
                              in.shape().z),
                  sim::Table::pct(tensor::zeroFraction(in)),
                  sim::Table::num(enc.totalNonZero() / bricks),
                  sim::Table::pct(empty / bricks),
                  sim::Table::num(
                      static_cast<double>(enc.storageBits()) /
                      (static_cast<double>(in.size()) *
                       zfnaf::kNeuronBits)),
                  sim::Table::num(
                      static_cast<double>(enc.offsetOnlyStorageBits()) /
                      (static_cast<double>(in.size()) *
                       zfnaf::kNeuronBits))});
    }
    t.print(std::cout);
    std::cout << "\nZFNAf keeps brick slots aligned, so the footprint is\n"
                 "always (16+offset bits)/16 = 1.25x the dense array —\n"
                 "the format trades memory for direct brick indexing\n"
                 "(Section IV-B1). The offset-only column is Cnvlutin2's\n"
                 "encoding (values only for non-zero neurons, offsets for\n"
                 "every slot), whose footprint shrinks with sparsity —\n"
                 "see docs/zfnaf.md.\n";
    return 0;
}

int
cmdExportTraces(const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.cfg;
    const auto net = nn::zoo::build(nn::zoo::netFromName(opts.net), cfg.seed);
    std::filesystem::create_directories(opts.out);
    const timing::DirectoryTraceProvider provider(opts.out);
    int written = 0;
    for (int i = 0; i < cfg.images; ++i) {
        const std::uint64_t seed = cfg.seed + i;
        for (int nodeId : net->convNodeIds()) {
            const auto in = nn::synthesizeConvInput(*net, nodeId, seed);
            tensor::saveTensorFile(provider.pathFor(*net, nodeId, seed),
                                   in);
            ++written;
        }
    }
    std::cout << "wrote " << written << " layer traces to " << opts.out
              << "; rerun timing against them by constructing a\n"
                 "timing::DirectoryTraceProvider (real framework traces\n"
                 "in the same format replace the synthetic generator).\n";
    return 0;
}

int
cmdTrace(const CliOptions &opts)
{
    // The trace covers one image: the grid's image-0 run per arch.
    driver::ExperimentConfig cfg = opts.cfg;
    cfg.images = 1;
    const auto net = nn::zoo::build(nn::zoo::netFromName(opts.net), cfg.seed);

    std::vector<driver::ArchTimeline> timelines;
    driver::evaluateNetworkArchs(cfg, *net,
                                 arch::builtin().select(opts.archs), nullptr,
                                 nullptr, &timelines);

    sim::TraceSink sink(opts.maxEvents);
    int pid = 1;
    for (const driver::ArchTimeline &tl : timelines)
        driver::appendNetworkTrace(
            sink, tl.result, pid++,
            sim::strfmt("{} ({})", tl.model->id(), net->name()));

    // The attribution must account for every idle lane-cycle the
    // models reported — a gap means a producer forgot its reason.
    std::vector<sim::StallCycles> stalls;
    for (const driver::ArchTimeline &tl : timelines) {
        const auto micro = tl.result.totalMicro();
        CNV_ASSERT(micro.stalls.total() == micro.laneIdleCycles,
                   "{} stall breakdown ({}) != idle lane-cycles ({})",
                   tl.result.architecture, micro.stalls.total(),
                   micro.laneIdleCycles);
        stalls.push_back(micro.stalls);
    }

    if (!opts.traceOut.empty()) {
        auto os = openOutput(opts.traceOut);
        sink.writeJson(os, {sim::TraceArg("network", net->name()),
                            sim::TraceArg("seed", cfg.seed),
                            sim::TraceArg("tool", "cnvsim trace")});
        std::cout << "wrote " << sink.events().size()
                  << " trace events to " << opts.traceOut;
        if (sink.droppedEvents() > 0)
            std::cout << " (" << sink.droppedEvents()
                      << " dropped at the --max-events cap)";
        std::cout << "\nload it in Perfetto (https://ui.perfetto.dev) or "
                     "chrome://tracing; 1 trace us = 1 cycle\n";
    }
    if (!opts.stallCsv.empty()) {
        auto os = openOutput(opts.stallCsv);
        bool header = true;
        for (const driver::ArchTimeline &tl : timelines) {
            driver::buildStallProfile(tl.result).writeCsv(
                os, tl.result.architecture, header);
            header = false;
        }
        std::cout << "wrote stall breakdown to " << opts.stallCsv << '\n';
    }

    // Per-reason summary, all selected architectures side by side.
    std::vector<std::string> header{"stall reason"};
    for (const driver::ArchTimeline &tl : timelines)
        header.push_back(tl.model->id() + " lane-cycles");
    sim::Table t(header);
    for (int i = 0; i < sim::kStallReasonCount; ++i) {
        const auto r = static_cast<sim::StallReason>(i);
        std::vector<std::string> row{sim::stallReasonName(r)};
        for (const sim::StallCycles &s : stalls)
            row.push_back(sim::Table::intNum(s[r]));
        t.addRow(row);
    }
    std::vector<std::string> totals{"total idle"};
    for (const sim::StallCycles &s : stalls)
        totals.push_back(sim::Table::intNum(s.total()));
    t.addRow(totals);
    t.print(std::cout);

    if (opts.stats)
        for (const driver::ArchTimeline &tl : timelines)
            driver::buildStats(tl.result, *tl.model)->dump(std::cout);
    return 0;
}

int
cmdReproduce(const CliOptions &opts)
{
    // The headline numbers of EXPERIMENTS.md in one run: Figure 1,
    // Figure 9 (zero skipping only), Figure 11 and Figure 13.
    const driver::ExperimentConfig &cfg = opts.cfg;
    std::cout << "node: " << cfg.node.describe() << "\n\n";

    sim::Table t({"network", "zero operands", "CNV speedup",
                  "EDP gain", "ED^2P gain"});
    double zf = 0, sp = 0, edp = 0, ed2p = 0;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, cfg.seed);
        const double zeroFrac =
            nn::zeroOperandFraction(*net, cfg.seed + 100);
        const auto r = driver::evaluateNetwork(cfg, *net);
        const driver::ArchAggregate &base = r.arch("dadiannao");
        const driver::ArchAggregate &cnvAgg = r.arch("cnv");
        const auto mb = base.model->metrics(base.energy, base.cycles);
        const auto mc =
            cnvAgg.model->metrics(cnvAgg.energy, cnvAgg.cycles);
        zf += zeroFrac;
        sp += r.speedup();
        edp += mb.edp / mc.edp;
        ed2p += mb.ed2p / mc.ed2p;
        t.addRow({nn::zoo::netName(id), sim::Table::pct(zeroFrac),
                  sim::Table::num(r.speedup()),
                  sim::Table::num(mb.edp / mc.edp),
                  sim::Table::num(mb.ed2p / mc.ed2p)});
    }
    t.addRow({"average", sim::Table::pct(zf / 6), sim::Table::num(sp / 6),
              sim::Table::num(edp / 6), sim::Table::num(ed2p / 6)});
    t.addRow({"paper", "44.0%", "1.37", "1.47", "2.01"});
    t.print(std::cout);

    const auto &reg = arch::builtin();
    const auto baseArea = reg.get("dadiannao").area();
    const auto cnvArea = reg.get("cnv").area();
    std::cout << "\narea overhead: "
              << sim::Table::pct(cnvArea.total() / baseArea.total() - 1.0)
              << " (paper: 4.49%)\n";
    return 0;
}

int
cmdValidate(const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.cfg;
    const auto id = nn::zoo::netFromName(opts.net);
    auto net = nn::zoo::build(id, cfg.seed, cfg.accuracyScale);
    net->calibrate();
    const auto image = nn::synthesizeImage(net->node(0).outShape,
                                           cfg.seed + 1);

    const dadiannao::NodeConfig node;
    ref::BaselineNodeModel baseline{node};
    ref::CnvNodeModel cnv{node};
    const auto b = baseline.run(*net, image);
    const auto c = cnv.run(*net, image);
    const auto golden = net->forward(image);

    const bool ok = b.final == c.final && b.final == golden.final;
    std::cout << nn::zoo::netName(id) << " at 1/" << cfg.accuracyScale
              << " scale: baseline/CNV/golden outputs "
              << (ok ? "bit-identical" : "MISMATCH") << "; top-1 "
              << b.top1 << "; cycles " << b.timing.totalCycles() << " vs "
              << c.timing.totalCycles() << '\n';
    return ok ? 0 : 1;
}

/** One cnvsim command and the flags its code reads. */
struct Command
{
    std::string_view name;
    std::string_view summary;
    std::vector<driver::Flag> flags;
    int (*run)(const CliOptions &);

    /** Network commands take --net or a positional network. */
    bool
    network() const
    {
        return std::find(flags.begin(), flags.end(), Net) != flags.end();
    }
};

const std::vector<Command> kCommands = {
    {"list", "network inventory", {}, cmdList},
    {"archs", "architecture registry listing", {Ids}, cmdArchs},
    {"run", "timing run on the selected architectures",
     {Net, Arch, Images, Seed, WeightSparsity, Mem, Layers, Stats, ReportJson,
      ReportCsv, Jobs, PerfJson, Progress}, cmdRun},
    {"power", "power / energy / EDP",
     {Net, Arch, Images, Seed, WeightSparsity, Mem, Jobs, PerfJson, Progress},
     cmdPower},
    {"prune", "lossless threshold search",
     {Net, Images, Seed, Scale, Floor, Jobs, PerfJson, Progress}, cmdPrune},
    {"validate", "functional equivalence check",
     {Net, Seed, Scale, Jobs, PerfJson, Progress}, cmdValidate},
    {"zfnaf", "per-layer ZFNAf statistics",
     {Net, Seed, Jobs, PerfJson, Progress}, cmdZfnaf},
    {"export-traces", "write per-layer traces to --out",
     {Net, Images, Seed, Out, Jobs, PerfJson, Progress}, cmdExportTraces},
    {"trace", "cycle-level event trace with stall attribution",
     {Net, Arch, Seed, WeightSparsity, Mem, Stats, TraceOut, StallCsv,
      MaxEvents, Jobs, PerfJson, Progress}, cmdTrace},
    {"reproduce", "headline paper-vs-measured table",
     {Images, Seed, Jobs, PerfJson, Progress}, cmdReproduce},
};

/** "run <net>", "list": a command's synopsis. */
std::string
synopsis(const Command &c)
{
    return std::string(c.name) + (c.network() ? " <net>" : "");
}

/** The full usage text, generated from kCommands and the flag table. */
void
printUsage(std::ostream &os)
{
    os << "usage: cnvsim <command> [network] [options]\n  networks:";
    for (auto id : nn::zoo::allNetworks())
        os << ' ' << nn::zoo::netName(id);
    os << "\ncommands (each accepts only the options listed with it):\n";
    std::vector<driver::Flag> all;
    for (const Command &c : kCommands) {
        os << "  " << std::left << std::setw(20) << synopsis(c) << ' '
           << c.summary << '\n';
        if (!c.flags.empty())
            os << "      " << driver::flagNames(c.flags) << '\n';
        all.insert(all.end(), c.flags.begin(), c.flags.end());
    }
    os << "options:\n";
    driver::printFlagHelp(os, all);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const auto cmd = std::find_if(
        kCommands.begin(), kCommands.end(),
        [&](const Command &c) { return !args.empty() && c.name == args[0]; });
    if (cmd == kCommands.end()) {
        printUsage(std::cerr);
        return 2;
    }
    const std::string tool = "cnvsim " + std::string(cmd->name);
    // Telemetry is on for the whole process: every phase timer, pool
    // lane and cache counter below records against this epoch.
    sim::metrics().setEnabled(true);

    try {
        CliOptions opts;
        opts.cfg.images = 2;
        // The network comes positionally (`run nin`) or via --net
        // (`run --net nin`); the positional wins.
        const bool positional =
            cmd->network() && args.size() >= 2 && !args[1].starts_with("--");
        driver::parseFlags(
            tool, {args.begin() + (positional ? 2 : 1), args.end()},
            cmd->flags, opts);
        if (positional)
            opts.net = args[1];
        if (cmd->network() && opts.net.empty())
            throw driver::UsageError(tool + ": missing network "
                                            "(positional or --net)");
        const int rc = cmd->run(opts);
        writePerfJson(opts, cmd->network() ? opts.net : "(all zoo networks)");
        return rc;
    } catch (const driver::UsageError &e) {
        std::cerr << e.what() << "\nusage: cnvsim " << synopsis(*cmd)
                  << " [options]\n";
        driver::printFlagHelp(std::cerr, cmd->flags);
        return 2;
    } catch (const sim::FatalError &) {
        return 1; // CNV_FATAL printed its "fatal:" line already
    } catch (const sim::PanicError &) {
        return 1; // likewise CNV_PANIC's "panic:" line
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
