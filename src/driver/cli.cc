#include "driver/cli.h"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <limits>
#include <type_traits>

#include "mem/memory_model.h"
#include "sim/logging.h"
#include "sim/parallel.h"

namespace cnv::driver {

namespace {

/** Whole-string number in [min, max]; "2x", "", NaN and -5 fail. */
template <typename T>
bool
number(std::string_view v, T &out, std::type_identity_t<T> min,
       std::type_identity_t<T> max = std::numeric_limits<T>::max())
{
    T x{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
    if (ec != std::errc() || end != v.data() + v.size() ||
        !(x >= min && x <= max))
        return false;
    out = x;
    return true;
}

/** Any non-empty value (paths, names, id lists). */
bool
text(std::string_view v, std::string &out)
{
    out = v;
    return !v.empty();
}

/** One flag: spelling, value shape, help line and what it sets. */
struct FlagSpec
{
    Flag flag;
    std::string_view name;
    std::string_view metavar;  ///< value placeholder; "" for a switch
    std::string_view expected; ///< a valid value, for the diagnostic
    std::string_view help;
    /** Stores the value (switches get ""); false rejects it. */
    bool (*set)(CliOptions &, std::string_view);
};

constexpr std::string_view kPositive = "an integer >= 1";
constexpr std::string_view kFraction = "a number in [0, 1]";
constexpr std::string_view kPath = "a non-empty path";

/** The flag table, in help order. */
constexpr FlagSpec kFlags[] = {
    {Flag::Net, "--net", "NAME", "a network name", "network (or positional)",
     [](auto &o, auto v) { return text(v, o.net); }},
    {Flag::Arch, "--arch", "a,b,...", "a list of architecture ids",
     "architectures by registry id (default dadiannao,cnv)",
     [](auto &o, auto v) { return text(v, o.archs); }},
    {Flag::Images, "--images", "N", kPositive, "trace instances per network",
     [](auto &o, auto v) { return number(v, o.cfg.images, 1); }},
    {Flag::Seed, "--seed", "S", "an unsigned integer",
     "root seed (default 2016)",
     [](auto &o, auto v) { return number(v, o.cfg.seed, 0u); }},
    {Flag::Scale, "--scale", "K", kPositive,
     "reduction of the accuracy network (default 8)",
     [](auto &o, auto v) { return number(v, o.cfg.accuracyScale, 1); }},
    {Flag::Floor, "--floor", "F", kFraction,
     "relative-accuracy floor of the search (default 1.0)",
     [](auto &o, auto v) { return number(v, o.floor, 0.0, 1.0); }},
    {Flag::WeightSparsity, "--weight-sparsity", "F", kFraction,
     "weight bricks cnv2 skips (default 0.35)",
     [](auto &o, auto v) {
         return number(v, o.cfg.weightSparsity, 0.0, 1.0);
     }},
    {Flag::Mem, "--mem", "ideal|banked", "'ideal' or 'banked'",
     "memory model (default ideal)",
     [](auto &o, auto v) {
         const auto kind = mem::parseKind(v);
         o.cfg.memKind = kind.value_or(o.cfg.memKind);
         return kind.has_value();
     }},
    {Flag::Layers, "--layers", "", "", "per-layer cycle table",
     [](auto &o, auto) { return o.layers = true; }},
    {Flag::Stats, "--stats", "", "", "dump the full statistics tree",
     [](auto &o, auto) { return o.stats = true; }},
    {Flag::Ids, "--ids", "", "", "bare registry ids, one per line",
     [](auto &o, auto) { return o.ids = true; }},
    {Flag::Csv, "--csv", "", "", "print CSV instead of aligned tables",
     [](auto &o, auto) { return o.csv = true; }},
    {Flag::Quick, "--quick", "", "", "minimal work (smoke runs)",
     [](auto &o, auto) { return o.quick = true; }},
    {Flag::Out, "--out", "DIR", kPath,
     "directory of the exported traces (default traces)",
     [](auto &o, auto v) { return text(v, o.out); }},
    {Flag::ReportJson, "--report-json", "PATH", kPath,
     "write the run report as JSON (cnv-report-v1)",
     [](auto &o, auto v) { return text(v, o.reportJson); }},
    {Flag::ReportCsv, "--report-csv", "PATH", kPath,
     "write the run report as CSV",
     [](auto &o, auto v) { return text(v, o.reportCsv); }},
    {Flag::Json, "--json", "PATH", kPath,
     "write the figure's data as JSON (cnv-figure-v1)",
     [](auto &o, auto v) { return text(v, o.json); }},
    {Flag::TraceOut, "--trace-out", "PATH", kPath,
     "write a Chrome trace-event JSON of the runs",
     [](auto &o, auto v) { return text(v, o.traceOut); }},
    {Flag::StallCsv, "--stall-csv", "PATH", kPath,
     "write the per-layer stall breakdown as CSV",
     [](auto &o, auto v) { return text(v, o.stallCsv); }},
    {Flag::MaxEvents, "--max-events", "N", kPositive,
     "bound the trace-event sink (default 1048576)",
     [](auto &o, auto v) { return number(v, o.maxEvents, 1u); }},
    {Flag::Jobs, "--jobs", "N", kPositive,
     "worker-pool size (default CNVSIM_JOBS or all cores)",
     [](auto &o, auto v) { return number(v, o.jobs, 1); }},
    {Flag::PerfJson, "--perf-json", "PATH", kPath,
     "write the host profile as JSON (cnv-perf-v1)",
     [](auto &o, auto v) { return text(v, o.perfJson); }},
    {Flag::Progress, "--progress", "on|off|auto", "on, off or auto",
     "stderr progress meter (auto: only on a TTY)",
     [](auto &o, auto v) {
         using P = sim::MetricsRegistry::Progress;
         o.progress = v == "on" ? P::On : v == "auto" ? P::Auto : P::Off;
         return v == "on" || v == "off" || v == "auto";
     }},
    {Flag::Help, "--help", "", "", "print this help and exit",
     [](auto &o, auto) { return o.help = true; }},
};

[[noreturn]] void
fail(std::string_view tool, const std::string &problem)
{
    throw UsageError(sim::strfmt("{}: {}", tool, problem));
}

bool
contains(const std::vector<Flag> &flags, Flag f)
{
    return std::find(flags.begin(), flags.end(), f) != flags.end();
}

} // namespace

void
parseFlags(std::string_view tool, const std::vector<std::string> &args,
           const std::vector<Flag> &accepted, CliOptions &opts)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string_view word = args[i];
        if (!word.starts_with("--"))
            fail(tool, sim::strfmt("unexpected argument '{}'", word));
        const std::string_view name = word.substr(0, word.find('='));
        const FlagSpec *spec = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const FlagSpec &s) { return s.name == name; });
        if (spec == std::end(kFlags) || !contains(accepted, spec->flag)) {
            const std::string known = flagNames(accepted);
            fail(tool, sim::strfmt("unknown option {} (accepted: {})", name,
                                   known.empty() ? "none" : known));
        }
        const bool inlineValue = name.size() < word.size();
        std::string_view value;
        if (inlineValue) {
            if (spec->metavar.empty())
                fail(tool, sim::strfmt("{} takes no value", name));
            value = word.substr(name.size() + 1);
        } else if (!spec->metavar.empty()) {
            if (i + 1 >= args.size())
                fail(tool, sim::strfmt("missing value for {}", name));
            value = args[++i];
        }
        if (!spec->set(opts, value))
            fail(tool, sim::strfmt("invalid value '{}' for {} (expected {})",
                                   value, name, spec->expected));
    }
    if (opts.jobs > 0)
        sim::setJobCount(opts.jobs);
    sim::metrics().configureProgress(opts.progress);
}

std::string
flagNames(const std::vector<Flag> &flags)
{
    std::string names;
    for (const FlagSpec &s : kFlags)
        if (contains(flags, s.flag))
            names.append(names.empty() ? "" : " ").append(s.name);
    return names;
}

void
printFlagHelp(std::ostream &os, const std::vector<Flag> &flags)
{
    for (const FlagSpec &s : kFlags) {
        if (!contains(flags, s.flag))
            continue;
        std::string label(s.name);
        if (!s.metavar.empty())
            label.append(" ").append(s.metavar);
        os << "  " << std::left << std::setw(24) << label << ' ' << s.help
           << '\n';
    }
}

} // namespace cnv::driver
