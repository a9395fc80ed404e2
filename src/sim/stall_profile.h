/**
 * @file
 * Stall attribution: why lanes sat idle, per layer and per reason.
 *
 * Every idle lane-cycle the simulator models carries exactly one
 * StallReason; a StallProfile folds those attributions — recorded
 * directly by the models or recovered from a TraceSink's event
 * stream (category "stall") — into a per-layer, per-reason table
 * whose grand total equals the MicroTrace laneIdleCycles already
 * reported per layer (enforced by tests/analysis/
 * test_trace_pipeline.cc).
 *
 * The profile exports as CSV (`layer,reason,idleLaneCycles`); the
 * cnv-report-v1 stat tree carries the same reasons as each layer's
 * "stalls" group (driver/stats_report.cc). See
 * docs/observability.md for both schemas.
 */

#ifndef CNV_SIM_STALL_PROFILE_H
#define CNV_SIM_STALL_PROFILE_H

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace_event.h"

namespace cnv::sim {

/** Why a neuron lane sat idle for a span of cycles. */
enum class StallReason {
    /** Lane had bricks left but its brick-buffer entry was empty
     *  (waiting on an NM fetch); on the baseline, the equivalent
     *  NBin-empty pipeline-fill wait. */
    BrickBufferEmpty = 0,
    /** Lane finished its window-group work early and waited at the
     *  per-window-group synchronisation barrier (Section IV-B5). */
    WindowBarrier,
    /** Whole node idle on the off-chip synapse stream (exposed
     *  synapse-load time not hidden by compute overlap). */
    SynapseWait,
    /** Lane's slice ran dry inside the structural pipeline while
     *  other lanes were still draining theirs. */
    SliceDrained,
    /** Independent slice fetch pointers landed on the same NM bank
     *  and serialised (`--mem banked`,
     *  mem::MemoryModel::replayGroup). */
    NmBankConflict,
    /** Global-buffer miss fills not hidden behind the window
     *  group's compute (`--mem banked`,
     *  mem::MemoryModel::chargeGroup). */
    GbMiss,
    /** Whole node idle on an off-chip activation spill past the NM
     *  capacity (`--mem banked`, mem::MemoryModel::dramTransfer). */
    DramWait,
};

/** Number of distinct stall reasons. */
inline constexpr int kStallReasonCount = 7;

/** Stable snake_case name, as every report and trace prints it. */
const char *stallReasonName(StallReason r);

/** One-line report description of the reason's idle lane-cycles. */
const char *stallReasonDescription(StallReason r);

/** True for the reasons only a `--mem banked` run models
 *  (NmBankConflict, GbMiss, DramWait); they follow the others. */
bool isMemoryStallReason(StallReason r);

/** Inverse of stallReasonName; nullopt for unknown names. */
std::optional<StallReason> stallReasonFromName(std::string_view name);

/**
 * Idle lane-cycles split by stall reason: one cell per StallReason,
 * indexed by the reason. Every model that reports idle lane-cycles
 * attributes each one to exactly one cell, so total() equals the
 * idle count wherever both are filled.
 */
struct StallCycles
{
    std::array<std::uint64_t, kStallReasonCount> cycles{};

    std::uint64_t &
    operator[](StallReason r)
    {
        return cycles[static_cast<std::size_t>(r)];
    }

    std::uint64_t
    operator[](StallReason r) const
    {
        return cycles[static_cast<std::size_t>(r)];
    }

    /** Idle lane-cycles summed over every reason. */
    std::uint64_t total() const;

    StallCycles &operator+=(const StallCycles &o);

    bool operator==(const StallCycles &) const = default;
};

/**
 * Per-layer, per-reason idle lane-cycle breakdown.
 *
 * Rows are keyed by a caller-chosen layer label (the report uses
 * the same "L<i>_<name>" keys as the stats layer groups) and kept
 * in first-seen order.
 */
class StallProfile
{
  public:
    /** One layer's idle lane-cycles split by reason. */
    struct Row
    {
        std::string layer;
        StallCycles idle;
    };

    /** Attribute `laneCycles` idle lane-cycles to (layer, reason). */
    void add(const std::string &layer, StallReason r,
             std::uint64_t laneCycles);

    /**
     * Fold a sink's stall events into the profile. A stall event is
     * any event with category "stall"; its name is the reason, its
     * "laneCycles" argument (or, absent that, its duration — one
     * lane's span) is the idle amount, and its "layer" argument (or
     * `defaultLayer`) keys the row. Events with unknown reason
     * names are counted and reported, not silently skipped.
     *
     * @param pid Fold only this process's events; 0 folds all.
     * @return Number of stall events with unrecognised reasons.
     */
    std::size_t addFromTrace(const TraceSink &sink, std::uint32_t pid = 0,
                             const std::string &defaultLayer =
                                 "(unattributed)");

    /** Rows in first-seen order. */
    const std::vector<Row> &rows() const { return rows_; }

    /** Idle lane-cycles per reason, summed over layers. */
    StallCycles totals() const;

    /**
     * Write `layer,reason,idleLaneCycles` CSV rows (RFC 4180
     * quoting). Zero cells are skipped so the file stays sparse.
     *
     * @param prefix Optional first column value prepended as an
     *        extra `scope` column (used to merge several profiles —
     *        e.g. both architectures — into one file).
     * @param header Emit the header row.
     */
    void writeCsv(std::ostream &os, const std::string &prefix = "",
                  bool header = true) const;

  private:
    Row &rowFor(const std::string &layer);

    std::vector<Row> rows_;
};

} // namespace cnv::sim

#endif // CNV_SIM_STALL_PROFILE_H
