#include "sim/stall_profile.h"

#include "sim/logging.h"
#include "sim/stats_export.h"

namespace cnv::sim {

namespace {

/** Name and report description of each reason, in enum order: the
 *  one definition the reports, traces and stall CSVs all read. */
struct ReasonInfo
{
    const char *name;
    const char *desc;
};

constexpr std::array<ReasonInfo, kStallReasonCount> kReasons = {{
    {"brick_buffer_empty", "lane-cycles idle waiting on NM brick fetches"},
    {"window_barrier", "lane-cycles idle at window-group sync barriers"},
    {"synapse_wait", "lane-cycles idle on the off-chip synapse stream"},
    {"slice_drained", "lane-cycles idle with the lane's slice drained"},
    {"nm_bank_conflict",
     "lane-cycles idle serialising on NM bank conflicts"},
    {"gb_miss", "lane-cycles idle on exposed global-buffer miss fills"},
    {"dram_wait", "lane-cycles idle on off-chip activation spills"},
}};

const ReasonInfo &
infoOf(StallReason r)
{
    const auto i = static_cast<std::size_t>(r);
    CNV_ASSERT(i < kReasons.size(), "invalid stall reason {}", i);
    return kReasons[i];
}

} // namespace

const char *
stallReasonName(StallReason r)
{
    return infoOf(r).name;
}

const char *
stallReasonDescription(StallReason r)
{
    return infoOf(r).desc;
}

bool
isMemoryStallReason(StallReason r)
{
    return r >= StallReason::NmBankConflict;
}

std::optional<StallReason>
stallReasonFromName(std::string_view name)
{
    for (int i = 0; i < kStallReasonCount; ++i) {
        const auto r = static_cast<StallReason>(i);
        if (name == stallReasonName(r))
            return r;
    }
    return std::nullopt;
}

std::uint64_t
StallCycles::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : cycles)
        sum += v;
    return sum;
}

StallCycles &
StallCycles::operator+=(const StallCycles &o)
{
    for (std::size_t i = 0; i < cycles.size(); ++i)
        cycles[i] += o.cycles[i];
    return *this;
}

StallProfile::Row &
StallProfile::rowFor(const std::string &layer)
{
    for (Row &r : rows_) {
        if (r.layer == layer)
            return r;
    }
    rows_.push_back({layer, {}});
    return rows_.back();
}

void
StallProfile::add(const std::string &layer, StallReason r,
                  std::uint64_t laneCycles)
{
    rowFor(layer).idle[r] += laneCycles;
}

std::size_t
StallProfile::addFromTrace(const TraceSink &sink, std::uint32_t pid,
                           const std::string &defaultLayer)
{
    std::size_t unknown = 0;
    for (const TraceEvent &e : sink.events()) {
        if (e.cat != "stall")
            continue;
        if (pid != 0 && e.pid != pid)
            continue;
        const auto reason = stallReasonFromName(e.name);
        if (!reason) {
            ++unknown;
            continue;
        }
        std::uint64_t cycles = e.dur;
        const std::string *layer = &defaultLayer;
        for (const TraceArg &a : e.args) {
            if (a.name == "laneCycles" && !a.isString)
                cycles = static_cast<std::uint64_t>(a.number);
            else if (a.name == "layer" && a.isString)
                layer = &a.text;
        }
        add(*layer, *reason, cycles);
    }
    if (unknown > 0)
        CNV_WARN("{} stall event(s) carried unknown reason names", unknown);
    return unknown;
}

StallCycles
StallProfile::totals() const
{
    StallCycles sum;
    for (const Row &row : rows_)
        sum += row.idle;
    return sum;
}

void
StallProfile::writeCsv(std::ostream &os, const std::string &prefix,
                       bool header) const
{
    if (header) {
        if (!prefix.empty())
            os << "scope,";
        os << "layer,reason,idleLaneCycles\n";
    }
    for (const Row &row : rows_) {
        for (int i = 0; i < kStallReasonCount; ++i) {
            const auto r = static_cast<StallReason>(i);
            if (row.idle[r] == 0)
                continue;
            if (!prefix.empty())
                os << csvQuote(prefix) << ',';
            os << csvQuote(row.layer) << ',' << stallReasonName(r) << ','
               << row.idle[r] << '\n';
        }
    }
}

} // namespace cnv::sim
