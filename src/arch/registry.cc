#include "arch/registry.h"

#include <utility>

#include "sim/logging.h"

namespace cnv::arch {

void
ArchRegistry::add(ArchModel model)
{
    CNV_ASSERT(!model.id().empty(), "ArchModel id must be non-empty");
    if (find(model.id()) != nullptr)
        CNV_FATAL("architecture '{}' is already registered", model.id());
    models_.push_back(std::move(model));
}

const ArchModel *
ArchRegistry::find(std::string_view id) const
{
    for (const auto &model : models_)
        if (model.id() == id)
            return &model;
    return nullptr;
}

const ArchModel &
ArchRegistry::get(std::string_view id) const
{
    const ArchModel *model = find(id);
    if (model == nullptr)
        CNV_FATAL("unknown architecture '{}' (known: {})",
                  std::string(id), describeIds());
    return *model;
}

std::vector<std::string>
ArchRegistry::ids() const
{
    std::vector<std::string> out;
    out.reserve(models_.size());
    for (const auto &model : models_)
        out.push_back(model.id());
    return out;
}

std::string
ArchRegistry::describeIds() const
{
    std::string out;
    for (const auto &model : models_) {
        if (!out.empty())
            out += ", ";
        out += model.id();
    }
    return out;
}

std::vector<const ArchModel *>
ArchRegistry::select(std::string_view csv) const
{
    std::vector<const ArchModel *> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t end = csv.find(',', start);
        if (end == std::string_view::npos)
            end = csv.size();
        std::string_view token = csv.substr(start, end - start);
        while (!token.empty() && token.front() == ' ')
            token.remove_prefix(1);
        while (!token.empty() && token.back() == ' ')
            token.remove_suffix(1);
        if (token.empty())
            CNV_FATAL("empty architecture name in selection '{}' "
                      "(known: {})",
                      std::string(csv), describeIds());
        const ArchModel &model = get(token);
        for (const ArchModel *seen : out)
            if (seen == &model)
                CNV_FATAL("architecture '{}' selected twice in '{}'",
                          model.id(), std::string(csv));
        out.push_back(&model);
        start = end + 1;
        if (end == csv.size())
            break;
    }
    CNV_ASSERT(!out.empty(), "empty architecture selection");
    return out;
}

} // namespace cnv::arch
