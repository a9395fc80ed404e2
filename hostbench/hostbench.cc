/**
 * @file
 * hostbench — the in-process workloads of the host-time benchmark.
 * run.py builds and drives it; see NOTES.md for why each workload
 * exists and which layer it loads.
 *
 *   hostbench info <net>
 *       provenance plus the network's conv-input geometry, which
 *       run.py needs to turn cnvsim's histograms into per-element
 *       rates
 *   hostbench design-sweep|prune-search --seed S --ops N --setups K
 *             [--trace PATH]
 *       K set-ups (the last one is kept), then N ops of one closed-
 *       loop client. With --trace, the kept set-up and every odd op
 *       are traced and the spans are written to PATH.
 *
 * Prints one JSON object on stdout: set-up times, per-op latencies,
 * check results and simulated cycle counts. Spans cover the
 * harness's own calls into each module's public functions; nothing
 * inside the simulator is instrumented beyond what it already has.
 */

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "arch/registry.h"
#include "core/simd.h"
#include "driver/driver.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "sim/trace_event.h"
#include "timing/trace_cache.h"

namespace {

using namespace cnv;
using sim::TraceArg;

constexpr int kJobs = 1;
/** Network weights seed: the CLI default, so the canonical speedup
 *  below is the one `cnvsim run <net>` prints. */
const std::uint64_t kNetSeed = driver::ExperimentConfig{}.seed;

std::uint64_t
nowNs()
{
    return sim::MetricsRegistry::nowNanos();
}

/** splitmix64: derives every schedule entry from the workload seed. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** A /proc/self/status field in KiB (VmRSS, VmHWM); 0 if absent. */
std::uint64_t
statusKib(std::string_view field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(field, 0) == 0 && line.size() > field.size() &&
            line[field.size()] == ':')
            return std::stoull(line.substr(field.size() + 1));
    }
    return 0;
}

/**
 * In-memory span recorder. Each span carries its op id, its own id
 * and its parent's, plus exact nanosecond start/duration (ts/dur are
 * the same interval in whole microseconds for trace viewers). The
 * whole set is written once, at the end, through sim::TraceSink.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled)
        : sink_(enabled ? std::make_unique<sim::TraceSink>() : nullptr),
          epoch_(nowNs())
    {}

    bool on() const { return sink_ != nullptr && active_; }
    /** Spans are recorded only while active (traced set-up/ops). */
    void setActive(bool active, int op)
    {
        active_ = active;
        op_ = op;
    }

    int
    open()
    {
        const int id = nextId_++;
        stack_.push_back(id);
        return id;
    }

    void
    close(int id, const std::string &name, std::uint64_t t0,
          std::vector<TraceArg> args)
    {
        const std::uint64_t t1 = nowNs();
        stack_.pop_back();
        const int parent = stack_.empty() ? -1 : stack_.back();
        args.emplace_back("op", static_cast<double>(op_));
        args.emplace_back("id", static_cast<double>(id));
        args.emplace_back("parent", static_cast<double>(parent));
        args.emplace_back("startNs", t0 - epoch_);
        args.emplace_back("durNs", t1 - t0);
        const std::string cat = name.substr(0, name.find('.'));
        sink_->complete(1, 0, name, cat, (t0 - epoch_) / 1000,
                        (t1 - t0) / 1000, std::move(args));
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            CNV_FATAL("cannot open trace file '{}'", path);
        sink_->writeJson(os, {{"spanClock", "host microseconds"}});
    }

  private:
    std::unique_ptr<sim::TraceSink> sink_;
    std::uint64_t epoch_;
    std::vector<int> stack_;
    int nextId_ = 0;
    int op_ = -1;
    bool active_ = false;
};

/** RAII span: a no-op unless the tracer is active. */
class Span
{
  public:
    Span(Tracer &tracer, std::string name)
        : tracer_(tracer), name_(std::move(name))
    {
        if (tracer_.on()) {
            id_ = tracer_.open();
            t0_ = nowNs();
        }
    }
    ~Span()
    {
        if (id_ >= 0)
            tracer_.close(id_, name_, t0_, std::move(args_));
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    arg(std::string name, std::uint64_t v)
    {
        if (id_ >= 0)
            args_.emplace_back(std::move(name), v);
    }

  private:
    Tracer &tracer_;
    std::string name_;
    int id_ = -1;
    std::uint64_t t0_ = 0;
    std::vector<TraceArg> args_;
};

/** Options shared by the two in-process workloads. */
struct Options
{
    std::uint64_t seed = 1;
    int ops = 0;
    int setups = 1;
    std::string trace;
};

/** One op's outcome, as run.py consumes it. */
struct OpResult
{
    std::uint64_t nanos = 0;
    /** VmRSS change across the op, KiB (traced runs only). */
    double rssDeltaKib = 0.0;
    bool traced = false;
    bool ok = false;
    std::vector<std::uint64_t> cycles;
};

/** Everything one workload run reports. */
struct RunResult
{
    std::vector<double> setupSeconds;
    std::vector<std::uint64_t> setupCycles;
    std::vector<OpResult> ops;
    std::uint64_t peakRssKib = 0;
    /** Canonical CNV-over-DaDianNao speedup (canonicalSpeedup). */
    double speedup = 0.0;
};

/**
 * Pull every conv layer's input tensor and count map through the
 * cache, one span each, so synthesis and counting are timed apart
 * from the timing models that later read them.
 */
void
touchTraces(Tracer &tracer, timing::TraceCache &cache, const nn::Network &net,
            std::uint64_t seedBase, int images, const nn::PruneConfig *prune,
            int brickSize)
{
    for (int img = 0; img < images; ++img) {
        const std::uint64_t imageSeed = seedBase + img;
        for (int id : net.convNodeIds()) {
            {
                Span s(tracer, "nn.synth");
                const auto misses = cache.stats().tensorMisses;
                const auto t = cache.convInput(net, id, imageSeed, nullptr);
                s.arg("miss", cache.stats().tensorMisses - misses);
                s.arg("elems", t->size());
                s.arg("conv", static_cast<std::uint64_t>(id));
                s.arg("image", imageSeed);
            }
            Span s(tracer, "zfnaf.count");
            const auto misses = cache.stats().countMapMisses;
            cache.countMap(net, id, imageSeed, nullptr, prune, brickSize);
            s.arg("miss", cache.stats().countMapMisses - misses);
            s.arg("elems", net.node(id).inShape.volume());
        }
    }
}

std::uint64_t
cyclesOf(const driver::NetworkReport &r, std::string_view id)
{
    return r.arch(id).cycles;
}

/** CNV-over-DaDianNao at the default NodeConfig, ideal memory and the
 *  CLI's default images: independent of the workload seed. */
double
canonicalSpeedup(const nn::Network &net)
{
    return driver::evaluateNetworkArchs(driver::ExperimentConfig{}, net,
                                        arch::canonicalPair())
        .speedup();
}

/**
 * The loop shared by both workloads. `setup()` builds a workload state
 * (a struct holding at least `cache` and `net`); `op(state, i, r)` runs
 * op i on it and fills its result. Set-up runs `opts.setups` times and
 * the ops use the last state; each earlier state is dropped before the
 * next set-up starts, so peak RSS holds one state only.
 *
 * Traced ops (odd ops when tracing) also enable the metrics registry
 * for the op's duration, so the pool's busy and steal counters land on
 * the op's span; untraced ops run with every probe off.
 */
template <typename Setup, typename Op>
void
runWorkload(const Options &opts, Tracer &tracer, RunResult &out,
            Setup &&setup, Op &&op)
{
    const bool tracing = !opts.trace.empty();
    std::optional<decltype(setup())> kept;
    for (int k = 0; k < opts.setups; ++k) {
        kept.reset();
        tracer.setActive(tracing && k + 1 == opts.setups, -1);
        const std::uint64_t t0 = nowNs();
        {
            Span s(tracer, "bench.setup");
            kept.emplace(setup());
        }
        out.setupSeconds.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    auto &state = *kept;
    out.setupCycles = state.setupCycles;

    for (int i = 0; i < opts.ops; ++i) {
        OpResult r;
        r.traced = tracing && i % 2 == 1;
        tracer.setActive(r.traced, i);
        const auto before = state.cache->stats();
        // Untraced ops of a traced run give the cache's memory growth
        // without the span storage the traced ones add.
        const double rss0 =
            tracing ? static_cast<double>(statusKib("VmRSS")) : 0.0;
        if (r.traced)
            sim::metrics().setEnabled(true);
        const std::uint64_t t0 = nowNs();
        {
            Span s(tracer, "bench.op");
            op(state, i, r);
            if (r.traced) {
                const auto snap = sim::metrics().snapshot();
                std::uint64_t busy = 0;
                for (const auto &[key, v] : snap.counters)
                    if (key.size() > 10 &&
                        key.compare(key.size() - 10, 10, ".busyNanos") == 0)
                        busy += v;
                const auto stolen = snap.counters.find("pool.stolenTasks");
                const auto after = state.cache->stats();
                s.arg("poolBusyNs", busy);
                s.arg("poolLanes", static_cast<std::uint64_t>(sim::jobCount()));
                s.arg("stolenTasks", stolen == snap.counters.end()
                                         ? 0 : stolen->second);
                s.arg("tensorMisses", after.tensorMisses - before.tensorMisses);
                s.arg("countHits", after.countMapHits - before.countMapHits);
                s.arg("countMisses",
                      after.countMapMisses - before.countMapMisses);
            }
        }
        r.nanos = nowNs() - t0;
        if (tracing)
            r.rssDeltaKib = static_cast<double>(statusKib("VmRSS")) - rss0;
        if (r.traced)
            sim::metrics().setEnabled(false);
        out.ops.push_back(std::move(r));
    }
    out.peakRssKib = statusKib("VmHWM");
    tracer.setActive(false, -1);
    state.cache.reset();
    out.speedup = canonicalSpeedup(*state.net);
}


/** One design point of the sweep. */
struct DesignPoint
{
    int nboutEntries;
    dadiannao::LaneAssignment lanes;
    double weightSparsity;
};

/**
 * design-sweep: google at --jobs 1. Set-up warms a TraceCache with two
 * images; each op evaluates one design point on dadiannao, cnv and
 * cnv2 under ideal and banked memory. Every lookup hits, so the ops
 * load only the closed-form timing models and the banked memory model.
 */
RunResult
designSweep(const Options &opts, Tracer &tracer)
{
    constexpr int kImages = 2;
    const auto archs = arch::builtin().select("dadiannao,cnv,cnv2");
    const int brick = archs.front()->nodeConfig({}).brickSize;
    const std::uint64_t imageBase = mix(opts.seed) % 1000000;

    // The fixed cycle of design points, in a seed-derived order.
    std::vector<DesignPoint> points;
    // NBout depths whose per-op cost stays within ~5% of each other
    // (32 entries costs 1.07x the median op, 128 costs 0.92x).
    for (int nbout : {48, 64, 96})
        for (auto lanes : {dadiannao::LaneAssignment::ZOnly,
                           dadiannao::LaneAssignment::XYZHash,
                           dadiannao::LaneAssignment::WindowEven})
            for (double ws : {0.2, 0.35, 0.5})
                points.push_back({nbout, lanes, ws});
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
    for (std::size_t p = 0; p < points.size(); ++p)
        keyed.push_back({mix(opts.seed ^ mix(p + 1)), p});
    std::sort(keyed.begin(), keyed.end());

    struct State
    {
        std::unique_ptr<nn::Network> net;
        std::unique_ptr<timing::TraceCache> cache;
        std::vector<std::uint64_t> setupCycles; ///< none for this workload
    };
    auto setup = [&] {
        State st;
        {
            Span s(tracer, "nn.build");
            st.net = nn::zoo::build(nn::zoo::NetId::Google, kNetSeed);
        }
        st.cache = std::make_unique<timing::TraceCache>();
        touchTraces(tracer, *st.cache, *st.net, imageBase, kImages, nullptr,
                    brick);
        return st;
    };

    RunResult out;
    runWorkload(opts, tracer, out, setup, [&](State &st, int i, OpResult &r) {
        const DesignPoint &p = points[keyed[i % keyed.size()].second];
        driver::ExperimentConfig cfg;
        cfg.images = kImages;
        cfg.seed = imageBase;
        cfg.node.nboutEntries = p.nboutEntries;
        cfg.node.laneAssignment = p.lanes;
        cfg.weightSparsity = p.weightSparsity;
        if (tracer.on())
            touchTraces(tracer, *st.cache, *st.net, imageBase, kImages,
                        nullptr, brick);
        driver::NetworkReport ideal;
        {
            Span s(tracer, "driver.evaluate.ideal");
            ideal = driver::evaluateNetworkArchs(cfg, *st.net, archs, nullptr,
                                                 st.cache.get());
            s.arg("simCalls", archs.size() * cfg.images);
            s.arg("convLayers", st.net->convLayerCount());
        }
        cfg.memKind = mem::Kind::Banked;
        driver::NetworkReport banked;
        {
            Span s(tracer, "driver.evaluate.banked");
            banked = driver::evaluateNetworkArchs(cfg, *st.net, archs, nullptr,
                                                  st.cache.get());
            s.arg("simCalls", archs.size() * cfg.images);
        }
        for (const auto *rep : {&ideal, &banked})
            for (const char *id : {"dadiannao", "cnv", "cnv2"})
                r.cycles.push_back(cyclesOf(*rep, id));
        // ZOnly and XYZHash leave lanes idle on google's shallow
        // layers (dadiannao/config.h), so only the paper's WindowEven
        // mapping must beat the baseline.
        const bool paperMapping =
            p.lanes == dadiannao::LaneAssignment::WindowEven;
        r.ok = true;
        for (const auto *rep : {&ideal, &banked})
            r.ok = r.ok &&
                   cyclesOf(*rep, "cnv2") <= cyclesOf(*rep, "cnv") &&
                   (!paperMapping ||
                    cyclesOf(*rep, "cnv") <= cyclesOf(*rep, "dadiannao"));
        r.ok = r.ok && cyclesOf(banked, "cnv") >= cyclesOf(ideal, "cnv");
    });
    return out;
}

/**
 * prune-search: vgg19 at --jobs 1. Set-up builds the net, calibrates
 * the scale-8 accuracy net and warms one image. Each op is a fresh
 * Table II-ladder candidate: its relative accuracy on the accuracy
 * net, then its dadiannao/cnv timing on the full net. Every op adds
 * count maps to the cache.
 */
RunResult
pruneSearch(const Options &opts, Tracer &tracer)
{
    constexpr int kAccuracyImages = 6;
    constexpr int kAccuracyScale = 8;
    const auto archs = arch::canonicalPair();
    const int brick = archs.front()->nodeConfig({}).brickSize;
    const std::uint64_t imageBase = mix(opts.seed) % 1000000;
    const std::uint64_t accuracySeed = mix(opts.seed + 1) % 1000000;
    const std::vector<std::int32_t> ladder = pruning::SearchOptions{}.levels;

    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = imageBase;
    struct State
    {
        std::unique_ptr<nn::Network> net;
        std::unique_ptr<nn::Network> acc;
        std::unique_ptr<timing::TraceCache> cache;
        /** dadiannao and cnv cycles of the unpruned net. */
        std::vector<std::uint64_t> setupCycles;
    };
    auto setup = [&] {
        State st;
        {
            Span s(tracer, "nn.build");
            st.net = nn::zoo::build(nn::zoo::NetId::Vgg19, kNetSeed);
            st.acc = nn::zoo::build(nn::zoo::NetId::Vgg19, kNetSeed,
                                    kAccuracyScale);
        }
        {
            Span s(tracer, "nn.calibrate");
            st.acc->calibrate();
        }
        st.cache = std::make_unique<timing::TraceCache>();
        touchTraces(tracer, *st.cache, *st.net, imageBase, 1, nullptr, brick);
        Span s(tracer, "driver.evaluate.ideal");
        const auto rep = driver::evaluateNetworkArchs(cfg, *st.net, archs,
                                                      nullptr, st.cache.get());
        st.setupCycles = {cyclesOf(rep, "dadiannao"), cyclesOf(rep, "cnv")};
        return st;
    };

    // Seeded, never-repeated candidates: one ladder rung per conv layer.
    const int convs = nn::zoo::build(nn::zoo::NetId::Vgg19, kNetSeed)
                          ->convLayerCount();
    std::vector<nn::PruneConfig> candidates;
    std::set<std::vector<std::int32_t>> seen;
    std::uint64_t state = mix(opts.seed + 2);
    while (static_cast<int>(candidates.size()) < opts.ops) {
        nn::PruneConfig c;
        for (int l = 0; l < convs; ++l) {
            state = mix(state);
            c.thresholds.push_back(ladder[state % ladder.size()]);
        }
        if (seen.insert(c.thresholds).second)
            candidates.push_back(std::move(c));
    }

    RunResult out;
    runWorkload(opts, tracer, out, setup, [&](State &st, int i, OpResult &r) {
        const nn::PruneConfig &cand = candidates[i];
        if (tracer.on())
            touchTraces(tracer, *st.cache, *st.net, imageBase, 1, &cand, brick);
        double accuracy = 0.0;
        {
            Span s(tracer, "pruning.accuracy");
            accuracy = pruning::relativeAccuracy(*st.acc, cand,
                                                 kAccuracyImages, accuracySeed);
        }
        driver::NetworkReport rep;
        {
            Span s(tracer, "driver.evaluate.ideal");
            rep = driver::evaluateNetworkArchs(cfg, *st.net, archs, &cand,
                                               st.cache.get());
            s.arg("simCalls", archs.size() * cfg.images);
            s.arg("convLayers", st.net->convLayerCount());
        }
        r.cycles = {cyclesOf(rep, "dadiannao"), cyclesOf(rep, "cnv")};
        r.ok = accuracy >= 0.0 && accuracy <= 1.0 &&
               cyclesOf(rep, "cnv") <= st.setupCycles[1];
    });
    return out;
}

void
writeProvenance(sim::JsonWriter &w)
{
    w.key("provenance").beginObject();
    w.key("compiler").value(HOSTBENCH_COMPILER);
    w.key("buildType").value(HOSTBENCH_BUILD_TYPE);
    w.key("simd").value(core::simd::instructionSet());
    w.key("jobs").value(sim::jobCount());
    w.endObject();
}

int
cmdInfo(const std::string &name)
{
    const auto net = nn::zoo::build(nn::zoo::netFromName(name), kNetSeed);
    std::uint64_t elems = 0;
    for (int id : net->convNodeIds())
        elems += net->node(id).inShape.volume();
    sim::JsonWriter w(std::cout);
    w.beginObject();
    writeProvenance(w);
    w.key("convLayers").value(net->convLayerCount());
    w.key("convInputElems").value(elems);
    w.endObject();
    std::cout << '\n';
    return 0;
}

void
writeResult(const RunResult &r)
{
    sim::JsonWriter w(std::cout);
    w.beginObject();
    writeProvenance(w);
    w.key("setupSeconds").beginArray();
    for (double s : r.setupSeconds)
        w.value(s);
    w.endArray();
    w.key("setupCycles").beginArray();
    for (std::uint64_t c : r.setupCycles)
        w.value(c);
    w.endArray();
    w.key("peakRssKib").value(r.peakRssKib);
    w.key("speedup").value(r.speedup);
    w.key("ops").beginArray();
    for (const OpResult &op : r.ops) {
        w.beginObject();
        w.key("seconds").value(static_cast<double>(op.nanos) * 1e-9);
        w.key("traced").value(op.traced);
        w.key("rssDeltaKib").value(op.rssDeltaKib);
        w.key("ok").value(op.ok);
        w.key("cycles").beginArray();
        for (std::uint64_t c : op.cycles)
            w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::cout << '\n';
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: hostbench info <net>\n"
                 "       hostbench design-sweep|prune-search --seed S "
                 "--ops N --setups K [--trace PATH]\n";
    std::exit(2);
}

template <typename T>
T
parseNumber(const std::string &flag, const std::string &value)
{
    T out{};
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), out);
    if (ec != std::errc() || ptr != value.data() + value.size()) {
        std::cerr << "hostbench: invalid value '" << value << "' for "
                  << flag << '\n';
        std::exit(2);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        usage();
    sim::setJobCount(kJobs);
    if (args[0] == "info") {
        if (args.size() != 2)
            usage();
        return cmdInfo(args[1]);
    }
    Options opts;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (i + 1 >= args.size())
            usage();
        const std::string &flag = args[i];
        const std::string &value = args[++i];
        if (flag == "--seed")
            opts.seed = parseNumber<std::uint64_t>(flag, value);
        else if (flag == "--ops")
            opts.ops = parseNumber<int>(flag, value);
        else if (flag == "--setups")
            opts.setups = parseNumber<int>(flag, value);
        else if (flag == "--trace")
            opts.trace = value;
        else
            usage();
    }
    if (opts.ops < 1 || opts.setups < 1)
        usage();

    Tracer tracer(!opts.trace.empty());
    RunResult result;
    if (args[0] == "design-sweep")
        result = designSweep(opts, tracer);
    else if (args[0] == "prune-search")
        result = pruneSearch(opts, tracer);
    else
        usage();
    if (!opts.trace.empty())
        tracer.write(opts.trace);
    writeResult(result);
    return 0;
}
