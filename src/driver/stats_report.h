/**
 * @file
 * Bridges simulation results into the sim::StatGroup framework so
 * embedding applications (and the cnvsim CLI) can dump or query
 * every measured quantity by name, gem5-style — and serializes the
 * whole run (manifest + every selected architecture + summary) as
 * the JSON / CSV report documented in docs/observability.md.
 */

#ifndef CNV_DRIVER_STATS_REPORT_H
#define CNV_DRIVER_STATS_REPORT_H

#include <memory>
#include <ostream>
#include <vector>

#include "arch/registry.h"
#include "dadiannao/metrics.h"
#include "driver/driver.h"
#include "driver/run_manifest.h"
#include "power/model.h"
#include "sim/stats.h"

namespace cnv::driver {

/**
 * Build a statistics tree for one network run:
 *
 *   <arch>.cycles, <arch>.activity.{other,conv1,zero,nonZero,stall},
 *   <arch>.energy.{sbReads,nmReads,...}, <arch>.power.{sb,nm,...},
 *   <arch>.micro.{laneBusyCycles,...,stalls.<reason name>},
 *   <arch>.layers.L<N>_<name>.{cycles,startCycle,activity,energy,micro}
 *
 * plus derived formulas (utilisation, zero share, joules, EDP). The
 * power subtree uses the model's calibrated parameter set. The
 * layers subtree is the run's timeline: startCycle is each layer's
 * first cycle on the serialized schedule.
 */
std::unique_ptr<sim::StatGroup>
buildStats(const dadiannao::NetworkResult &result,
           const arch::ArchModel &model,
           const power::PowerParams &params = {});

/**
 * One experiment's complete machine-readable record: provenance,
 * the per-layer timelines of every selected architecture (measured
 * on the manifest's root seed), and the multi-image aggregate
 * summary — all keyed by architecture id in selection order.
 */
struct RunReport
{
    RunManifest manifest;
    /** Per-architecture single-image timelines, in selection order. */
    std::vector<ArchTimeline> timelines;
    /** Aggregate over manifest.images images, same selection. */
    NetworkReport aggregate;
    /** Trace-cache hit/miss totals of the run (job-count-invariant:
     *  misses == distinct (image, layer, prune, brick) keys). */
    timing::TraceCache::Stats cacheStats;
};

/**
 * Evaluate `net` on the selected architectures and assemble a
 * RunReport from one evaluateNetworkArchs() pass: the timelines are
 * that pass's image-0 runs, so every trace is synthesized once. The
 * manifest comes from makeManifest(); the caller fills its
 * wallSeconds.
 */
RunReport buildRunReport(const ExperimentConfig &cfg,
                         const nn::Network &net,
                         const std::vector<const arch::ArchModel *> &archs,
                         const nn::PruneConfig *prune = nullptr);

/** Same, over the canonical dadiannao + cnv pair. */
RunReport buildRunReport(const ExperimentConfig &cfg,
                         const nn::Network &net,
                         const nn::PruneConfig *prune = nullptr);

/**
 * Write a report as one JSON document (schema "cnv-report-v1"):
 *
 *   { "schema": "cnv-report-v1",
 *     "manifest": { ... RunManifest ... },
 *     "architectures": { "<arch id>": <stat tree>, ... },
 *     "summary": { "images",
 *                  "archs": { "<arch id>": { "cycles" }, ... },
 *                  "cache": { "tensorHits", "tensorMisses",
 *                             "countMapHits", "countMapMisses" },
 *                  "memory": { "<arch id>": { "nmAccesses", ...,
 *                              "memoryBoundLayers",
 *                              "computeBoundLayers" }, ... },
 *                  "baselineCycles", "cnvCycles", "speedup" } }
 *
 * where each stat tree follows the sim::exportJson() layout. The
 * architectures object holds one section per selected architecture
 * in selection order; the legacy baselineCycles/cnvCycles/speedup
 * summary trio is emitted whenever the canonical dadiannao and cnv
 * entries are both part of the selection, so two-architecture
 * consumers keep parsing unchanged.
 */
void writeReportJson(const RunReport &report, std::ostream &os);

/**
 * Write a report as CSV: `path,kind,value,description` rows —
 * manifest fields first (kind "manifest"), then every statistic of
 * each architecture tree (paths rooted at the architecture id),
 * then the summary (kind "summary"). The manifest and summary rows
 * come from the same field lists as writeReportJson(), so each
 * carries its JSON leaf's value digit for digit.
 */
void writeReportCsv(const RunReport &report, std::ostream &os);

} // namespace cnv::driver

#endif // CNV_DRIVER_STATS_REPORT_H
