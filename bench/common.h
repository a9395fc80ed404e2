/**
 * @file
 * Shared scaffolding for the reproduction bench binaries: each
 * binary regenerates one table or figure of the paper (see
 * DESIGN.md's per-experiment index) and prints the same rows the
 * paper reports, plus the paper's value for comparison.
 *
 * Each bench reads its options through the shared flag table
 * (driver/cli.h) and accepts only the flags its code reads;
 * `<bench> --help` lists them.
 */

#ifndef CNV_BENCH_COMMON_H
#define CNV_BENCH_COMMON_H

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "driver/cli.h"
#include "driver/driver.h"
#include "driver/run_manifest.h"
#include "sim/metrics.h"
#include "sim/stats_export.h"
#include "sim/table.h"

namespace cnv::bench {

/**
 * Parse a bench's command line: the `flags` its code reads plus the
 * ones every bench reads through this header (--csv for emit(), the
 * process-wide --jobs, and --help), with `images` as the --images
 * default. A mistake exits 2 with the parser's diagnostic; --help
 * prints the accepted flags and exits 0. Benches always profile
 * themselves: the perf-regression gate compares the hostProfile
 * block of their --json artifacts across the BENCH_* trajectory.
 */
inline driver::CliOptions
parseFlags(int argc, char **argv, std::vector<driver::Flag> flags,
           int images = 2)
{
    sim::metrics().setEnabled(true);
    const std::string tool = std::filesystem::path(argv[0]).filename();
    flags.insert(flags.end(),
                 {driver::Flag::Csv, driver::Flag::Jobs, driver::Flag::Help});
    driver::CliOptions opts;
    opts.cfg.images = images;
    try {
        driver::parseFlags(tool, {argv + 1, argv + argc}, flags, opts);
    } catch (const driver::UsageError &e) {
        std::cerr << e.what() << '\n';
        std::exit(2);
    }
    if (opts.help) {
        std::cout << "usage: " << tool << " [options]\n";
        driver::printFlagHelp(std::cout, flags);
        std::exit(0);
    }
    return opts;
}

/** Print the node configuration once, for reproducibility. */
inline void
printConfig(const dadiannao::NodeConfig &cfg)
{
    std::cout << "node: " << cfg.describe() << '\n';
}

/** Print a titled table in the selected format. */
inline void
emit(const driver::CliOptions &opts, const std::string &title,
     const sim::Table &table)
{
    std::cout << "\n=== " << title << " ===\n";
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout.flush();
}

/**
 * Write a figure's data (a stat tree assembled by the bench binary)
 * as a JSON artifact when --json was given:
 *
 *   { "schema": "cnv-figure-v1",
 *     "figure": "<figure>",
 *     "manifest": { ... RunManifest ... },
 *     "data": <sim::exportJson tree> }
 *
 * The same exporter the driver reports use serializes the tree, so
 * plotting scripts consume one schema for both kinds of file.
 */
inline void
writeFigureArtifact(const driver::CliOptions &opts, const std::string &figure,
                    const sim::StatGroup &data)
{
    if (opts.json.empty())
        return;
    std::ofstream os(opts.json);
    if (!os) {
        std::cerr << "cannot open JSON artifact file " << opts.json
                  << '\n';
        std::exit(1);
    }
    driver::RunManifest manifest =
        driver::makeManifest(figure, "(all zoo networks)", opts.cfg);
    manifest.wallSeconds = sim::metrics().secondsSinceEnable();

    sim::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cnv-figure-v1");
    w.key("figure").value(figure);
    w.key("manifest");
    manifest.writeJson(w);
    w.key("data");
    sim::exportJson(data, w);
    w.key("hostProfile");
    sim::writeHostProfile(sim::metrics().snapshot(), w);
    w.endObject();
    os << '\n';
    std::cout << "wrote JSON artifact to " << opts.json << '\n';
}

} // namespace cnv::bench

#endif // CNV_BENCH_COMMON_H
