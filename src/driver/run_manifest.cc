#include "driver/run_manifest.h"

#include "driver/driver.h"
#include "mem/memory_model.h"
#include "sim/parallel.h"

#ifndef CNV_GIT_SHA
#define CNV_GIT_SHA "unknown"
#endif
#ifndef CNV_VERSION
#define CNV_VERSION "0.0.0"
#endif

namespace cnv::driver {

void
RunManifest::writeJson(sim::JsonWriter &w) const
{
    w.beginObject();
    w.key("tool").value(tool);
    w.key("gitSha").value(gitSha);
    w.key("version").value(version);
    w.key("network").value(network);
    w.key("nodeConfig").value(nodeConfig);
    w.key("images").value(images);
    w.key("seed").value(static_cast<std::uint64_t>(seed));
    w.key("jobs").value(jobs);
    w.key("weightSparsity").value(weightSparsity);
    if (mem != "ideal")
        w.key("mem").value(mem);
    w.key("wallSeconds").value(wallSeconds);
    w.endObject();
}

std::string
buildGitSha()
{
    return CNV_GIT_SHA;
}

std::string
buildVersion()
{
    return CNV_VERSION;
}

RunManifest
makeManifest(std::string tool, std::string network,
             const ExperimentConfig &cfg)
{
    RunManifest m;
    m.tool = std::move(tool);
    m.gitSha = buildGitSha();
    m.version = buildVersion();
    m.network = std::move(network);
    m.nodeConfig = cfg.node.describe();
    m.images = cfg.images;
    m.seed = cfg.seed;
    m.jobs = sim::jobCount();
    m.weightSparsity = cfg.weightSparsity;
    m.mem = mem::kindName(cfg.memKind);
    return m;
}

} // namespace cnv::driver
