/**
 * @file
 * cnvsim — the command-line front end to the simulator.
 *
 *   cnvsim list                          network inventory
 *   cnvsim archs [--ids]                 architecture registry listing
 *                                        (--ids: bare id per line, for
 *                                        scripts and doc checks)
 *   cnvsim run <net> [opts]              timing run on selected archs
 *   cnvsim power <net> [opts]            power / energy / EDP
 *   cnvsim prune <net> [opts]            lossless threshold search
 *   cnvsim validate <net> [opts]         functional equivalence check
 *   cnvsim zfnaf <net> [opts]            per-layer ZFNAf statistics
 *   cnvsim export-traces <net> [opts]    write per-layer traces to --out
 *   cnvsim trace <net> [opts]            cycle-level event trace with
 *                                        stall attribution
 *   cnvsim reproduce [opts]              headline paper-vs-measured table
 *
 * Common options:
 *   --arch a,b,... architectures to run, by registry id (default
 *                  "dadiannao,cnv"; see `cnvsim archs`)
 *   --images N     trace instances (default 2)
 *   --seed S       root seed (default 2016)
 *   --scale K      reduced-scale geometry (validate/prune accuracy)
 *   --stats        dump the full statistics tree (gem5-style)
 *   --layers       per-layer cycle table (run)
 *   --floor F      accuracy floor for prune (default 1.0)
 *   --report-json PATH   write the run report (manifest + per-layer
 *                        timelines + summary) as JSON (run)
 *   --report-csv PATH    same report as CSV rows (run)
 *   --net NAME     network (trace; alternative to the positional)
 *   --trace-out PATH     write the Chrome trace-event JSON (trace)
 *   --stall-csv PATH     write the per-layer stall breakdown (trace)
 *   --max-events N       bound the trace sink (default 1048576)
 *   --jobs N       worker-pool size (default: hardware concurrency,
 *                  or the CNVSIM_JOBS environment variable); results
 *                  are bit-identical for every value
 *   --weight-sparsity F  fraction of ineffectual weight bricks the
 *                  cnv2 model skips (0..1, default 0.35); recorded
 *                  in the report manifest, ignored by other archs
 *   --mem ideal|banked   memory-hierarchy model (run/power/trace):
 *                  ideal (default) keeps the legacy numbers
 *                  byte-identical; banked simulates NM banking, the
 *                  shared global buffer and the DRAM channel, and
 *                  adds the summary.memory report block
 *   --perf-json PATH     write the host-side telemetry profile
 *                  (phase timers, pool utilization, trace-cache
 *                  stats, peak RSS) as a cnv-perf-v1 artifact
 *   --progress on|off|auto   live stderr progress meter during the
 *                  image sweep (auto: only when stderr is a TTY)
 *
 * Every network command takes its network as a positional argument
 * (`cnvsim run nin ...`) or via --net (`cnvsim run --net nin ...`).
 *
 * Options accept both "--flag value" and "--flag=value" spellings.
 * The report, trace-event, stall and perf schemas are documented in
 * docs/observability.md.
 */

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arch/registry.h"
#include "core/node.h"
#include "dadiannao/node.h"
#include "driver/driver.h"
#include "driver/run_manifest.h"
#include "driver/stats_report.h"
#include "driver/trace_pipeline.h"
#include "mem/memory_model.h"
#include "nn/trace.h"
#include "tensor/serialize.h"
#include "zfnaf/format.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "sim/table.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;

struct CliOptions
{
    std::string archs = "dadiannao,cnv";
    int images = 2;
    std::uint64_t seed = 2016;
    int scale = 8;
    bool stats = false;
    bool layers = false;
    double floor = 1.0;
    std::string out = "traces";
    std::string reportJson;
    std::string reportCsv;
    std::string net;
    std::string traceOut;
    std::string stallCsv;
    std::size_t maxEvents = sim::TraceSink::kDefaultMaxEvents;
    int jobs = 0; ///< 0 = keep the process default
    double weightSparsity = timing::kDefaultWeightSparsity;
    mem::Kind memKind = mem::Kind::Ideal;
    std::string perfJson;
    sim::MetricsRegistry::Progress progress =
        sim::MetricsRegistry::Progress::Off;
};

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: cnvsim <command> [network] [options]\n"
        "  commands: list | archs | run | power | prune | validate |\n"
        "            zfnaf | export-traces | trace | reproduce\n"
        "  networks: alex google nin vgg19 cnnM cnnS\n"
        "  options : --arch a,b,... --images N --seed S --scale K\n"
        "            --stats --layers --floor F --report-json PATH\n"
        "            --report-csv PATH --net NAME --trace-out PATH\n"
        "            --stall-csv PATH --max-events N --jobs N\n"
        "            --weight-sparsity F --mem ideal|banked\n"
        "            --perf-json PATH --progress on|off|auto\n"
        "  archs accepts --ids (bare registry ids, one per line)\n";
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    std::exit(2);
}

/**
 * Strict --jobs parsing: a plain positive integer, nothing else.
 * Mirrors the bench runner's numeric validation (exit 2 with a
 * diagnostic) rather than std::stoi's exception path.
 */
int
parseJobs(const std::string &value)
{
    int jobs = 0;
    const char *begin = value.data();
    const char *end = begin + value.size();
    const auto [ptr, ec] = std::from_chars(begin, end, jobs);
    if (ec != std::errc() || ptr != end || jobs < 1) {
        std::cerr << "cnvsim: invalid value '" << value
                  << "' for --jobs (expected an integer >= 1)\n";
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        std::exit(2);
    }
    return jobs;
}

/**
 * Strict --mem parsing: one of the mem::Kind names, nothing else.
 * Same exit-2 diagnostic convention as --jobs.
 */
mem::Kind
parseMem(const std::string &value)
{
    const auto kind = mem::parseKind(value);
    if (!kind) {
        std::cerr << "cnvsim: invalid value '" << value
                  << "' for --mem (expected 'ideal' or 'banked')\n";
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        std::exit(2);
    }
    return *kind;
}

CliOptions
parseOptions(const std::vector<std::string> &rawArgs, std::size_t start)
{
    // Normalise "--flag=value" into "--flag value" so both spellings
    // work everywhere.
    std::vector<std::string> args;
    for (std::size_t i = start; i < rawArgs.size(); ++i) {
        const std::string &a = rawArgs[i];
        const std::size_t eq = a.find('=');
        if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }

    CliOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                usage();
            return args[++i];
        };
        if (args[i] == "--arch")
            opts.archs = next();
        else if (args[i] == "--images")
            opts.images = std::stoi(next());
        else if (args[i] == "--seed")
            opts.seed = std::stoull(next());
        else if (args[i] == "--scale")
            opts.scale = std::stoi(next());
        else if (args[i] == "--floor")
            opts.floor = std::stod(next());
        else if (args[i] == "--out")
            opts.out = next();
        else if (args[i] == "--report-json")
            opts.reportJson = next();
        else if (args[i] == "--report-csv")
            opts.reportCsv = next();
        else if (args[i] == "--net")
            opts.net = next();
        else if (args[i] == "--trace-out")
            opts.traceOut = next();
        else if (args[i] == "--stall-csv")
            opts.stallCsv = next();
        else if (args[i] == "--max-events")
            opts.maxEvents = std::stoull(next());
        else if (args[i] == "--jobs")
            opts.jobs = parseJobs(next());
        else if (args[i] == "--mem")
            opts.memKind = parseMem(next());
        else if (args[i] == "--perf-json") {
            opts.perfJson = next();
            if (opts.perfJson.empty()) {
                std::cerr << "cnvsim: invalid value '' for --perf-json "
                             "(expected an output path)\n";
                // NOLINTNEXTLINE(concurrency-mt-unsafe)
                std::exit(2);
            }
        }
        else if (args[i] == "--progress") {
            const std::string &value = next();
            if (value == "on")
                opts.progress = sim::MetricsRegistry::Progress::On;
            else if (value == "off")
                opts.progress = sim::MetricsRegistry::Progress::Off;
            else if (value == "auto")
                opts.progress = sim::MetricsRegistry::Progress::Auto;
            else {
                std::cerr << "cnvsim: invalid value '" << value
                          << "' for --progress (expected on, off or "
                             "auto)\n";
                // NOLINTNEXTLINE(concurrency-mt-unsafe)
                std::exit(2);
            }
        }
        else if (args[i] == "--weight-sparsity") {
            const std::string &value = next();
            opts.weightSparsity = std::stod(value);
            if (opts.weightSparsity < 0.0 || opts.weightSparsity > 1.0) {
                std::cerr << "cnvsim: invalid value '" << value
                          << "' for --weight-sparsity (expected a "
                             "fraction in [0, 1])\n";
                // NOLINTNEXTLINE(concurrency-mt-unsafe)
                std::exit(2);
            }
        }
        else if (args[i] == "--stats")
            opts.stats = true;
        else if (args[i] == "--layers")
            opts.layers = true;
        else
            usage();
    }
    if (opts.jobs > 0)
        sim::setJobCount(opts.jobs);
    sim::metrics().configureProgress(opts.progress);
    return opts;
}

/** The architecture models selected with --arch (registry order
 *  preserved as given; fatal on unknown ids). */
std::vector<const arch::ArchModel *>
selectedArchs(const CliOptions &opts)
{
    return arch::builtin().select(opts.archs);
}

/** Write the run report to the paths requested on the command line. */
void
writeReports(const CliOptions &opts, driver::RunReport &report)
{
    if (opts.reportJson.empty() && opts.reportCsv.empty())
        return;
    report.manifest.wallSeconds = sim::metrics().secondsSinceEnable();
    auto open = [](const std::string &path) {
        std::ofstream os(path);
        if (!os)
            CNV_FATAL("cannot open report file '{}'", path);
        return os;
    };
    if (!opts.reportJson.empty()) {
        auto os = open(opts.reportJson);
        driver::writeReportJson(report, os);
        std::cout << "wrote JSON report to " << opts.reportJson << '\n';
    }
    if (!opts.reportCsv.empty()) {
        auto os = open(opts.reportCsv);
        driver::writeReportCsv(report, os);
        std::cout << "wrote CSV report to " << opts.reportCsv << '\n';
    }
}

/**
 * Write the standalone cnv-perf-v1 telemetry artifact requested with
 * --perf-json: the run manifest plus the hostProfile object (same
 * emitter as the report section). Called once, after the command
 * body, so phase timers and cache counters cover the whole run.
 */
void
writePerfJson(const CliOptions &opts, const std::string &network)
{
    if (opts.perfJson.empty())
        return;
    std::ofstream os(opts.perfJson);
    if (!os)
        CNV_FATAL("cannot open perf file '{}'", opts.perfJson);
    driver::RunManifest manifest = driver::makeManifest("cnvsim");
    manifest.network = network;
    manifest.nodeConfig = dadiannao::NodeConfig().describe();
    manifest.images = opts.images;
    manifest.seed = opts.seed;
    manifest.weightSparsity = opts.weightSparsity;
    manifest.wallSeconds = sim::metrics().secondsSinceEnable();
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("cnv-perf-v1");
    w.key("manifest");
    manifest.writeJson(w);
    w.key("hostProfile");
    sim::writeHostProfile(sim::metrics().snapshot(), w);
    w.endObject();
    w.complete();
    os << '\n';
    std::cout << "wrote perf profile to " << opts.perfJson << '\n';
}

int
cmdList()
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
cmdArchs(bool idsOnly)
{
    if (idsOnly) {
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
cmdRun(nn::zoo::NetId id, const CliOptions &opts)
{
    driver::ExperimentConfig cfg;
    cfg.images = opts.images;
    cfg.seed = opts.seed;
    cfg.weightSparsity = opts.weightSparsity;
    cfg.memKind = opts.memKind;
    std::unique_ptr<nn::Network> net;
    std::vector<const arch::ArchModel *> archs;
    {
        const sim::ScopedPhase phase("build");
        net = nn::zoo::build(id, cfg.seed);
        archs = selectedArchs(opts);
    }
    const auto &ref = *archs.front();

    // One pass over the (arch x image) grid yields the aggregate and
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
    return 0;
}

int
cmdPower(nn::zoo::NetId id, const CliOptions &opts)
{
    driver::ExperimentConfig cfg;
    cfg.images = opts.images;
    cfg.seed = opts.seed;
    cfg.weightSparsity = opts.weightSparsity;
    cfg.memKind = opts.memKind;
    std::unique_ptr<nn::Network> net;
    std::vector<const arch::ArchModel *> archs;
    {
        const sim::ScopedPhase phase("build");
        archs = selectedArchs(opts);
        net = nn::zoo::build(id, cfg.seed);
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
cmdPrune(nn::zoo::NetId id, const CliOptions &opts)
{
    std::unique_ptr<nn::Network> fullNet;
    std::unique_ptr<nn::Network> accNet;
    {
        const sim::ScopedPhase phase("build");
        fullNet = nn::zoo::build(id, opts.seed);
        accNet = nn::zoo::build(id, opts.seed, opts.scale);
    }
    {
        const sim::ScopedPhase phase("calibrate");
        accNet->calibrate();
    }

    dadiannao::NodeConfig node;
    pruning::SearchOptions search;
    search.accuracyImages = std::max(6, opts.images * 3);
    search.timingImages = 1;
    search.seed = opts.seed + 7;
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
cmdZfnaf(nn::zoo::NetId id, const CliOptions &opts)
{
    const auto net = nn::zoo::build(id, opts.seed);
    sim::Table t({"conv layer", "input", "zero", "avg nz/brick",
                  "empty bricks", "ZFNAf bits vs dense",
                  "offset-only vs dense"});
    for (int nodeId : net->convNodeIds()) {
        const nn::Node &n = net->node(nodeId);
        const auto in =
            nn::synthesizeConvInput(*net, nodeId, opts.seed + 1);
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
cmdExportTraces(nn::zoo::NetId id, const CliOptions &opts)
{
    const auto net = nn::zoo::build(id, opts.seed);
    std::filesystem::create_directories(opts.out);
    const timing::DirectoryTraceProvider provider(opts.out);
    int written = 0;
    for (int i = 0; i < opts.images; ++i) {
        const std::uint64_t seed = opts.seed + i;
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
cmdTrace(nn::zoo::NetId id, const CliOptions &opts)
{
    // The trace covers one image: the grid's image-0 run per arch.
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = opts.seed;
    cfg.weightSparsity = opts.weightSparsity;
    cfg.memKind = opts.memKind;
    const auto net = nn::zoo::build(id, cfg.seed);

    std::vector<driver::ArchTimeline> timelines;
    driver::evaluateNetworkArchs(cfg, *net, selectedArchs(opts), nullptr,
                                 nullptr, &timelines);

    sim::TraceSink sink(opts.maxEvents);
    int pid = 1;
    for (const driver::ArchTimeline &tl : timelines)
        driver::appendNetworkTrace(
            sink, tl.result, pid++,
            sim::strfmt("{} ({})", tl.model->id(), net->name()));

    // The attribution must account for every idle lane-cycle the
    // models reported — a gap means a producer forgot its reason.
    for (const driver::ArchTimeline &tl : timelines) {
        const auto profile = driver::buildStallProfile(tl.result);
        const auto micro = tl.result.totalMicro();
        CNV_ASSERT(profile.totalIdle() == micro.laneIdleCycles,
                   "{} stall breakdown ({}) != idle lane-cycles ({})",
                   tl.result.architecture, profile.totalIdle(),
                   micro.laneIdleCycles);
    }

    auto open = [](const std::string &path) {
        std::ofstream os(path);
        if (!os)
            CNV_FATAL("cannot open output file '{}'", path);
        return os;
    };
    if (!opts.traceOut.empty()) {
        auto os = open(opts.traceOut);
        sink.writeJson(os, {sim::TraceArg("network", net->name()),
                            sim::TraceArg("seed", opts.seed),
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
        auto os = open(opts.stallCsv);
        bool header = true;
        for (const driver::ArchTimeline &tl : timelines) {
            driver::buildStallProfile(tl.result).writeCsv(
                os, tl.result.architecture, header);
            header = false;
        }
        std::cout << "wrote stall breakdown to " << opts.stallCsv << '\n';
    }

    // Per-reason summary, all selected architectures side by side.
    std::vector<sim::StallProfile> profiles;
    std::vector<std::string> header{"stall reason"};
    for (const driver::ArchTimeline &tl : timelines) {
        profiles.push_back(driver::buildStallProfile(tl.result));
        header.push_back(tl.model->id() + " lane-cycles");
    }
    sim::Table t(header);
    for (int i = 0; i < sim::kStallReasonCount; ++i) {
        const auto r = static_cast<sim::StallReason>(i);
        std::vector<std::string> row{sim::stallReasonName(r)};
        for (const sim::StallProfile &p : profiles)
            row.push_back(sim::Table::intNum(p.total(r)));
        t.addRow(row);
    }
    std::vector<std::string> totals{"total idle"};
    for (const sim::StallProfile &p : profiles)
        totals.push_back(sim::Table::intNum(p.totalIdle()));
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
    driver::ExperimentConfig cfg;
    cfg.images = opts.images;
    cfg.seed = opts.seed;
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
cmdValidate(nn::zoo::NetId id, const CliOptions &opts)
{
    auto net = nn::zoo::build(id, opts.seed, opts.scale);
    net->calibrate();
    const auto image = nn::synthesizeImage(net->node(0).outShape,
                                           opts.seed + 1);

    const dadiannao::NodeConfig node;
    dadiannao::NodeModel baseline{node};
    core::CnvNodeModel cnv{node};
    const auto b = baseline.run(*net, image);
    const auto c = cnv.run(*net, image);
    const auto golden = net->forward(image);

    const bool ok = b.final == c.final && b.final == golden.final;
    std::cout << nn::zoo::netName(id) << " at 1/" << opts.scale
              << " scale: baseline/CNV/golden outputs "
              << (ok ? "bit-identical" : "MISMATCH") << "; top-1 "
              << b.top1 << "; cycles " << b.timing.totalCycles() << " vs "
              << c.timing.totalCycles() << '\n';
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        usage();
    // Telemetry is on for the whole process: every phase timer, pool
    // lane and cache counter below records against this epoch.
    sim::metrics().setEnabled(true);

    try {
        const std::string &command = args[0];
        if (command == "list")
            return cmdList();
        if (command == "archs")
            return cmdArchs(args.size() >= 2 && args[1] == "--ids");
        if (command == "reproduce") {
            const CliOptions opts = parseOptions(args, 1);
            const int rc = cmdReproduce(opts);
            writePerfJson(opts, "(all zoo networks)");
            return rc;
        }

        // Every remaining command takes a network, positionally
        // (`run nin`) or via --net (`run --net nin`).
        CliOptions opts;
        std::string netName;
        if (args.size() >= 2 && args[1].rfind("--", 0) != 0) {
            netName = args[1];
            opts = parseOptions(args, 2);
            opts.net = netName;
        } else {
            opts = parseOptions(args, 1);
            if (opts.net.empty())
                usage();
            netName = opts.net;
        }
        const auto id = nn::zoo::netFromName(netName);
        int rc = 0;
        if (command == "run")
            rc = cmdRun(id, opts);
        else if (command == "power")
            rc = cmdPower(id, opts);
        else if (command == "prune")
            rc = cmdPrune(id, opts);
        else if (command == "validate")
            rc = cmdValidate(id, opts);
        else if (command == "zfnaf")
            rc = cmdZfnaf(id, opts);
        else if (command == "export-traces")
            rc = cmdExportTraces(id, opts);
        else if (command == "trace")
            rc = cmdTrace(id, opts);
        else
            usage();
        writePerfJson(opts, netName);
        return rc;
    } catch (const sim::FatalError &e) {
        std::cerr << e.what() << '\n';
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
