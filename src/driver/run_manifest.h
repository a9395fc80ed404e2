/**
 * @file
 * Provenance record attached to every machine-readable report.
 *
 * A report file divorced from the code and configuration that
 * produced it is worthless for a reproduction study, so each export
 * carries a manifest: which binary (version + git SHA), which
 * network, which node configuration, how many images, which seed,
 * and how long the run took. The git SHA is captured at CMake
 * configure time (CNV_GIT_SHA compile definition); rebuilding with
 * uncommitted changes therefore reports the last commit, not the
 * working tree — the "-dirty" suffix flags that case.
 */

#ifndef CNV_DRIVER_RUN_MANIFEST_H
#define CNV_DRIVER_RUN_MANIFEST_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats_export.h"

namespace cnv::driver {

/** Everything needed to re-run (and trust) a report. */
struct RunManifest
{
    /** Binary that produced the report (e.g. "cnvsim"). */
    std::string tool;
    /** Git commit the binary was configured from ("unknown" when
     *  built outside a checkout; "-dirty" suffix on local edits). */
    std::string gitSha;
    /** Project version (CMake PROJECT_VERSION). */
    std::string version;
    /** Network the run evaluated. */
    std::string network;
    /** Node configuration summary (NodeConfig::describe()). */
    std::string nodeConfig;
    /** Images (trace seeds) evaluated. */
    int images = 0;
    /** Root seed of the run. */
    std::uint64_t seed = 0;
    /** Worker-pool job count the run executed with (--jobs). The
     *  only manifest field allowed to differ between otherwise
     *  identical runs — results are job-count-invariant. */
    int jobs = 1;
    /** Cnv2 weight-sparsity knob the run executed with
     *  (--weight-sparsity); architectures without weight skipping
     *  ignore it but the provenance is recorded regardless. */
    double weightSparsity = 0.0;
    /** Memory-hierarchy model the run executed with (--mem). Only
     *  emitted when not "ideal", so ideal reports stay byte-
     *  identical to pre-mem builds. */
    std::string mem = "ideal";
    /** Wall-clock duration of the measured portion, in seconds. */
    double wallSeconds = 0.0;

    /** Every emitted field in report order, with descriptions: the
     *  one list the JSON object and the CSV manifest rows share. */
    std::vector<sim::Field> fields() const;

    /** Write this manifest as one JSON object into `w`. */
    void writeJson(sim::JsonWriter &w) const;
};

/** Git SHA baked in at configure time ("unknown" without git). */
std::string buildGitSha();

/** Project version string baked in at configure time. */
std::string buildVersion();

struct ExperimentConfig;

/**
 * The manifest of `tool`'s run of `cfg` on `network`: build
 * provenance, the worker-pool size and every experiment parameter.
 * The caller fills wallSeconds when the run ends.
 */
RunManifest makeManifest(std::string tool, std::string network,
                         const ExperimentConfig &cfg);

} // namespace cnv::driver

#endif // CNV_DRIVER_RUN_MANIFEST_H
