#include "sim/trace_event.h"

#include "sim/logging.h"
#include "sim/stats_export.h"

namespace cnv::sim {

TraceSink::TraceSink(std::size_t maxEvents) : maxEvents_(maxEvents)
{
    CNV_ASSERT(maxEvents_ >= 1, "trace sink needs room for one event");
    events_.reserve(std::min<std::size_t>(maxEvents_, 4096));
}

void
TraceSink::setProcessName(std::uint32_t pid, std::string name)
{
    processNames_.emplace_back(pid, std::move(name));
}

void
TraceSink::setThreadName(std::uint32_t pid, std::uint32_t tid,
                         std::string name)
{
    threadNames_.push_back({{pid, tid}, std::move(name)});
}

bool
TraceSink::admit()
{
    if (events_.size() < maxEvents_)
        return true;
    if (dropped_ == 0) {
        CNV_WARN("trace sink full at {} events; further events are "
                 "dropped (raise --max-events)", maxEvents_);
    }
    ++dropped_;
    return false;
}

void
TraceSink::complete(std::uint32_t pid, std::uint32_t tid, std::string name,
                    std::string cat, Cycle ts, Cycle dur,
                    std::vector<TraceArg> args)
{
    if (!admit())
        return;
    TraceEvent e;
    e.phase = 'X';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.dur = dur;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceSink::counter(std::uint32_t pid, std::uint32_t tid, std::string name,
                   Cycle ts, double value)
{
    if (!admit())
        return;
    TraceEvent e;
    e.phase = 'C';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = std::move(name);
    e.args.emplace_back("value", value);
    events_.push_back(std::move(e));
}

namespace {

void
writeArgs(JsonWriter &w, const std::vector<TraceArg> &args)
{
    w.beginObject();
    for (const TraceArg &a : args) {
        w.key(a.name);
        if (a.isString)
            w.value(a.text);
        else
            w.value(a.number);
    }
    w.endObject();
}

/** One 'M' metadata record naming a process or thread track. */
void
writeNameRecord(JsonWriter &w, const char *recordName, std::uint32_t pid,
                const std::uint32_t *tid, const std::string &name)
{
    w.beginObject();
    w.key("ph").value("M");
    w.key("pid").value(static_cast<std::uint64_t>(pid));
    if (tid)
        w.key("tid").value(static_cast<std::uint64_t>(*tid));
    w.key("name").value(recordName);
    w.key("args").beginObject();
    w.key("name").value(name);
    w.endObject();
    w.endObject();
}

} // namespace

void
TraceSink::writeJson(std::ostream &os,
                     const std::vector<TraceArg> &extraMetadata) const
{
    JsonWriter w(os);
    w.beginObject();
    // Cycles are written as trace microseconds; "ms" display keeps
    // kilocycle-scale runs readable in the Perfetto timeline.
    w.key("displayTimeUnit").value("ms");

    w.key("metadata").beginObject();
    w.key("clockDomain").value("cycles");
    w.key("maxEvents").value(static_cast<std::uint64_t>(maxEvents_));
    w.key("droppedEvents").value(static_cast<std::uint64_t>(dropped_));
    for (const TraceArg &a : extraMetadata) {
        w.key(a.name);
        if (a.isString)
            w.value(a.text);
        else
            w.value(a.number);
    }
    w.endObject();

    w.key("traceEvents").beginArray();
    for (const auto &[pid, name] : processNames_)
        writeNameRecord(w, "process_name", pid, nullptr, name);
    for (const auto &[ids, name] : threadNames_)
        writeNameRecord(w, "thread_name", ids.first, &ids.second, name);
    for (const TraceEvent &e : events_) {
        w.beginObject();
        w.key("ph").value(std::string_view(&e.phase, 1));
        w.key("pid").value(static_cast<std::uint64_t>(e.pid));
        w.key("tid").value(static_cast<std::uint64_t>(e.tid));
        w.key("ts").value(static_cast<std::uint64_t>(e.ts));
        if (e.phase == 'X')
            w.key("dur").value(static_cast<std::uint64_t>(e.dur));
        w.key("name").value(e.name);
        if (!e.cat.empty())
            w.key("cat").value(e.cat);
        if (!e.args.empty() || e.phase == 'C') {
            w.key("args");
            writeArgs(w, e.args);
        }
        w.endObject();
    }
    w.endArray();

    w.endObject();
    os << '\n';
    CNV_ASSERT(w.complete(), "trace document left unbalanced");
}

} // namespace cnv::sim
