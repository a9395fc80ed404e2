#include "sim/stall_profile.h"

#include "sim/logging.h"
#include "sim/stats_export.h"

namespace cnv::sim {

const char *
stallReasonName(StallReason r)
{
    switch (r) {
      case StallReason::BrickBufferEmpty: return "brick_buffer_empty";
      case StallReason::WindowBarrier: return "window_barrier";
      case StallReason::SynapseWait: return "synapse_wait";
      case StallReason::SliceDrained: return "slice_drained";
      case StallReason::NmBankConflict: return "nm_bank_conflict";
      case StallReason::GbMiss: return "gb_miss";
      case StallReason::DramWait: return "dram_wait";
    }
    CNV_PANIC("invalid stall reason {}", static_cast<int>(r));
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
StallProfile::Row::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : idle)
        sum += v;
    return sum;
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
    rowFor(layer).idle[static_cast<std::size_t>(r)] += laneCycles;
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

std::uint64_t
StallProfile::total(StallReason r) const
{
    std::uint64_t sum = 0;
    for (const Row &row : rows_)
        sum += row.idle[static_cast<std::size_t>(r)];
    return sum;
}

std::uint64_t
StallProfile::totalIdle() const
{
    std::uint64_t sum = 0;
    for (const Row &row : rows_)
        sum += row.total();
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
            if (row.idle[static_cast<std::size_t>(i)] == 0)
                continue;
            if (!prefix.empty())
                os << csvQuote(prefix) << ',';
            os << csvQuote(row.layer) << ','
               << stallReasonName(static_cast<StallReason>(i)) << ','
               << row.idle[static_cast<std::size_t>(i)] << '\n';
        }
    }
}

} // namespace cnv::sim
