#include "sim/stats_export.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <type_traits>

#include "sim/logging.h"

namespace cnv::sim {

namespace {

/**
 * Shortest decimal representation that parses back to exactly `v`.
 * Tries increasing precision so common values print compactly
 * ("0.5", not "0.5000000000000000").
 */
std::string
formatDouble(double v)
{
    for (int precision = 1; precision <= 17; ++precision) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return "0"; // unreachable: 17 significant digits round-trip
}

} // namespace

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::indent()
{
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size() * indentWidth_; ++i)
        os_ << ' ';
}

void
JsonWriter::beforeValue()
{
    if (stack_.empty()) {
        CNV_ASSERT(!emittedRoot_, "JSON document has exactly one root");
        emittedRoot_ = true;
        return;
    }
    Level &top = stack_.back();
    if (top.isObject) {
        CNV_ASSERT(top.keyPending, "object member needs key() first");
        top.keyPending = false;
        return;
    }
    if (top.members > 0)
        os_ << ',';
    indent();
    ++top.members;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    CNV_ASSERT(!stack_.empty() && stack_.back().isObject,
               "key() is only valid inside an object");
    Level &top = stack_.back();
    CNV_ASSERT(!top.keyPending, "two key() calls without a value");
    if (top.members > 0)
        os_ << ',';
    indent();
    os_ << '"' << escape(k) << "\": ";
    top.keyPending = true;
    ++top.members;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    os_ << '{';
    stack_.push_back({true, 0, false});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    CNV_ASSERT(!stack_.empty() && stack_.back().isObject,
               "endObject() without a matching beginObject()");
    const bool hadMembers = stack_.back().members > 0;
    stack_.pop_back();
    if (hadMembers)
        indent();
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    os_ << '[';
    stack_.push_back({false, 0, false});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    CNV_ASSERT(!stack_.empty() && !stack_.back().isObject,
               "endArray() without a matching beginArray()");
    const bool hadMembers = stack_.back().members > 0;
    stack_.pop_back();
    if (hadMembers)
        indent();
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beforeValue();
    os_ << '"' << escape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (std::isfinite(v))
        os_ << formatDouble(v);
    else
        os_ << "null";
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
    return *this;
}

namespace {

const char *
kindOf(const Stat &stat)
{
    if (dynamic_cast<const Counter *>(&stat))
        return "counter";
    if (dynamic_cast<const Scalar *>(&stat))
        return "scalar";
    if (dynamic_cast<const Formula *>(&stat))
        return "formula";
    return "stat";
}

void
writeStat(JsonWriter &w, const Stat &stat)
{
    w.beginObject();
    w.key("kind").value(kindOf(stat));
    if (const auto *c = dynamic_cast<const Counter *>(&stat)) {
        w.key("value").value(c->count());
    } else {
        w.key("value").value(stat.value());
    }
    w.key("desc").value(stat.desc());
    w.endObject();
}

} // namespace

void
exportJson(const StatGroup &group, JsonWriter &w)
{
    w.beginObject();
    w.key("name").value(group.name());
    w.key("stats").beginObject();
    for (const auto &stat : group.statChildren()) {
        w.key(stat->name());
        writeStat(w, *stat);
    }
    w.endObject();
    w.key("groups").beginObject();
    for (const auto &child : group.groupChildren()) {
        w.key(child->name());
        exportJson(*child, w);
    }
    w.endObject();
    w.endObject();
}

void
exportJson(const StatGroup &group, std::ostream &os)
{
    JsonWriter w(os);
    exportJson(group, w);
    os << '\n';
}

std::string
csvQuote(std::string_view field)
{
    if (field.find_first_of(",\"\n\r") == std::string_view::npos)
        return std::string(field);
    std::string out;
    out.reserve(field.size() + 2);
    out += '"';
    for (const char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

namespace {

void
csvRow(std::ostream &os, const std::string &path, const char *kind,
       const std::string &value, const std::string &desc)
{
    os << csvQuote(path) << ',' << kind << ',' << value << ','
       << csvQuote(desc) << '\n';
}

void
exportCsvRec(const StatGroup &group, std::ostream &os,
             const std::string &prefix)
{
    const std::string base =
        prefix.empty() ? group.name() : prefix + "." + group.name();
    for (const auto &stat : group.statChildren()) {
        const std::string path = base + "." + stat->name();
        const char *kind = kindOf(*stat);
        if (const auto *c = dynamic_cast<const Counter *>(stat.get())) {
            csvRow(os, path, kind, std::to_string(c->count()),
                   stat->desc());
        } else {
            csvRow(os, path, kind, formatDouble(stat->value()),
                   stat->desc());
        }
    }
    for (const auto &child : group.groupChildren())
        exportCsvRec(*child, os, base);
}

} // namespace

void
exportCsv(const StatGroup &group, std::ostream &os,
          const std::string &prefix, bool header)
{
    if (header)
        os << "path,kind,value,description\n";
    exportCsvRec(group, os, prefix);
}

void
writeJsonFields(const std::vector<Field> &fields, JsonWriter &w)
{
    // Objects open below the root, outermost first, by full dotted
    // path. A closed object must not reopen: its key would repeat.
    std::vector<std::string_view> opened;
    std::set<std::string_view> closed;
    const auto closeTo = [&](std::size_t depth) {
        for (; opened.size() > depth; opened.pop_back()) {
            closed.insert(opened.back());
            w.endObject();
        }
    };
    w.beginObject();
    for (const Field &f : fields) {
        const std::string_view path = f.path;
        std::size_t depth = 0, start = 0;
        for (std::size_t dot; (dot = path.find('.', start)) != path.npos;
             start = dot + 1, ++depth) {
            const std::string_view group = path.substr(0, dot);
            if (depth < opened.size() && opened[depth] == group)
                continue;
            closeTo(depth);
            CNV_ASSERT(!closed.count(group), "field {} reopens object {}",
                       path, group);
            w.key(path.substr(start, dot - start)).beginObject();
            opened.push_back(group);
        }
        closeTo(depth);
        w.key(path.substr(start));
        std::visit([&w](const auto &v) { w.value(v); }, f.value);
    }
    closeTo(0);
    w.endObject();
}

void
writeCsvFields(const std::vector<Field> &fields, std::string_view scope,
               std::ostream &os)
{
    const std::string kind(scope);
    for (const Field &f : fields) {
        const std::string value = std::visit(
            [](const auto &v) {
                using T = std::decay_t<decltype(v)>;
                if constexpr (std::is_same_v<T, std::string>)
                    return csvQuote(v);
                else if constexpr (std::is_same_v<T, double>)
                    return formatDouble(v);
                else
                    return std::to_string(v);
            },
            f.value);
        csvRow(os, kind + "." + f.path, kind.c_str(), value, f.desc);
    }
}

} // namespace cnv::sim
