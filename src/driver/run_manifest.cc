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

std::vector<sim::Field>
RunManifest::fields() const
{
    std::vector<sim::Field> f = {
        {"tool", tool, "binary that produced the report"},
        {"gitSha", gitSha, "configure-time git commit"},
        {"version", version, "project version"},
        {"network", network, "network evaluated"},
        {"nodeConfig", nodeConfig, "node configuration"},
        {"images", static_cast<std::uint64_t>(images), "images evaluated"},
        {"seed", seed, "root seed"},
        {"jobs", static_cast<std::uint64_t>(jobs), "worker-pool job count"},
        {"weightSparsity", weightSparsity, "Cnv2 weight-sparsity knob"},
    };
    if (mem != "ideal")
        f.push_back({"mem", mem, "memory-hierarchy model"});
    f.push_back(
        {"wallSeconds", wallSeconds, "wall-clock duration of the run"});
    return f;
}

void
RunManifest::writeJson(sim::JsonWriter &w) const
{
    sim::writeJsonFields(fields(), w);
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
