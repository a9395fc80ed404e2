/**
 * @file
 * The one command-line parser of cnvsim and the bench binaries.
 *
 * Every flag either front end knows is defined once, in the table in
 * cli.cc: its spelling, how its value is parsed and range-checked,
 * its help line and the CliOptions field it sets. A tool passes the
 * flags its code reads; any other flag, a missing value, or a
 * malformed or out-of-range value is a UsageError naming the tool and
 * the flag, which the front ends turn into exit status 2. Both
 * "--flag value" and "--flag=value" spellings are accepted.
 */

#ifndef CNV_DRIVER_CLI_H
#define CNV_DRIVER_CLI_H

#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "driver/driver.h"
#include "sim/metrics.h"
#include "sim/trace_event.h"

namespace cnv::driver {

/** Every command-line flag (the table in cli.cc defines each). */
enum class Flag
{
    Net, Arch, Images, Seed, Scale, Floor, WeightSparsity, Mem, Layers,
    Stats, Ids, Csv, Quick, Out, ReportJson, ReportCsv, Json, TraceOut,
    StallCsv, MaxEvents, Jobs, PerfJson, Progress, Help,
};

/**
 * A parsed command line. The experiment parameters land directly in
 * `cfg`. Each field's initial value is the default when its flag is
 * absent; callers with other defaults set them before parsing.
 */
struct CliOptions
{
    /** --images, --seed, --scale, --weight-sparsity and --mem. */
    ExperimentConfig cfg;
    std::string net;                     ///< --net
    std::string archs = "dadiannao,cnv"; ///< --arch
    double floor = 1.0;                  ///< --floor
    /** The switches --layers, --stats, --ids, --csv, --quick, --help. */
    bool layers = false, stats = false, ids = false, csv = false,
         quick = false, help = false;
    std::string out = "traces";          ///< --out
    std::string reportJson;              ///< --report-json
    std::string reportCsv;               ///< --report-csv
    std::string json;                    ///< --json
    std::string traceOut;                ///< --trace-out
    std::string stallCsv;                ///< --stall-csv
    std::string perfJson;                ///< --perf-json
    /** --max-events */
    std::size_t maxEvents = sim::TraceSink::kDefaultMaxEvents;
    int jobs = 0; ///< --jobs (0: keep the process default)
    sim::MetricsRegistry::Progress progress{}; ///< --progress (Off)
};

/** A command-line mistake; what() is the one-line diagnostic. */
class UsageError : public std::runtime_error
{
  public:
    explicit UsageError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * Parse `args` (the words after the tool's name and command) into
 * `opts`, accepting only the `accepted` flags, then apply the
 * process-wide --jobs and --progress. Throws UsageError
 * `"<tool>: ..."` on the first mistake.
 */
void parseFlags(std::string_view tool, const std::vector<std::string> &args,
                const std::vector<Flag> &accepted, CliOptions &opts);

/** The flags' spellings, space-separated, in table order. */
std::string flagNames(const std::vector<Flag> &flags);

/** One help line per flag ("  --images N   ..."), in table order. */
void printFlagHelp(std::ostream &os, const std::vector<Flag> &flags);

} // namespace cnv::driver

#endif // CNV_DRIVER_CLI_H
