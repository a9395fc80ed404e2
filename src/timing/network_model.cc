#include "timing/network_model.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dadiannao/other_layers.h"
#include "sim/logging.h"
#include "tensor/serialize.h"
#include "timing/conv_model.h"
#include "timing/trace_cache.h"

namespace cnv::timing {

using dadiannao::LayerResult;
using dadiannao::NetworkResult;
using dadiannao::NodeConfig;
using dadiannao::OverlapTracker;

const char *
archName(Arch a)
{
    switch (a) {
      case Arch::Baseline: return "dadiannao";
      case Arch::Cnv: return "cnv";
      case Arch::Cnv2: return "cnv2";
    }
    CNV_FATAL("unknown timing::Arch value {}", static_cast<int>(a));
}

std::string
DirectoryTraceProvider::pathFor(const nn::Network &net, int convNodeId,
                                std::uint64_t imageSeed) const
{
    return sim::strfmt("{}/{}_conv{}_img{}.cnvt", dir_, net.name(),
                       net.node(convNodeId).convIndex, imageSeed);
}

std::optional<tensor::NeuronTensor>
DirectoryTraceProvider::convInput(const nn::Network &net, int convNodeId,
                                  std::uint64_t imageSeed) const
{
    const std::string path = pathFor(net, convNodeId, imageSeed);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    tensor::NeuronTensor t = tensor::loadTensor(is);
    if (t.shape() != net.node(convNodeId).inShape) {
        CNV_FATAL("trace '{}' has shape {}x{}x{}, layer expects {}x{}x{}",
                  path, t.shape().x, t.shape().y, t.shape().z,
                  net.node(convNodeId).inShape.x,
                  net.node(convNodeId).inShape.y,
                  net.node(convNodeId).inShape.z);
    }
    return t;
}

namespace {

/**
 * Zero fraction of a fully-connected layer's input: the calibrated
 * post-activation target of the nearest upstream conv (through
 * pool/LRN/concat/FC-ReLU chains), or 0 when fed by raw data.
 */
double
fcInputZeroFraction(const nn::Network &net, int nodeId)
{
    int id = net.node(nodeId).inputs.empty()
        ? -1 : net.node(nodeId).inputs[0];
    while (id >= 0) {
        const nn::Node &n = net.node(id);
        if (n.kind == nn::NodeKind::Conv)
            return n.outputZeroTarget;
        if (n.kind == nn::NodeKind::Fc)
            return n.outputZeroTarget > 0 ? n.outputZeroTarget : 0.5;
        if (n.inputs.empty())
            return 0.0;
        id = n.inputs[0];
    }
    return 0.0;
}

/**
 * Extension: CNV-style zero skipping applied to a fully-connected
 * layer. Both the datapath work and the off-chip synapse stream
 * shrink by the input's non-zero fraction (a zero activation's
 * synapse column is never fetched).
 */
dadiannao::LayerResult
fcCnvTiming(const dadiannao::NodeConfig &cfg, const nn::Node &node,
            double zeroFraction, dadiannao::OverlapTracker &overlap)
{
    using dadiannao::LayerResult;
    LayerResult r;
    r.name = node.name + "(cnv-fc)";
    const double nzFrac = 1.0 - std::clamp(zeroFraction, 0.0, 1.0);
    const std::uint64_t volume = node.inShape.volume();
    const auto nzVolume = static_cast<std::uint64_t>(
        static_cast<double>(volume) * nzFrac + 0.5);

    const std::uint64_t passes =
        (node.fc.outputs + cfg.parallelFilters() - 1) /
        cfg.parallelFilters();
    const std::uint64_t compute =
        passes * ((nzVolume + cfg.lanes - 1) / cfg.lanes);
    const std::uint64_t bytes = static_cast<std::uint64_t>(
        static_cast<double>(node.synapses() * 2) * nzFrac + 0.5);
    r.energy.offchipBytes += bytes;
    const std::uint64_t load =
        (bytes + cfg.offchipBytesPerCycle - 1) / cfg.offchipBytesPerCycle;
    const std::uint64_t exposed = overlap.expose(load);
    r.cycles = std::max(compute, exposed);
    r.activity.other =
        r.cycles * static_cast<std::uint64_t>(cfg.nodeLanes());
    r.micro.laneBusyCycles =
        std::min(compute, r.cycles) * static_cast<std::uint64_t>(cfg.lanes);
    r.micro.laneIdleCycles =
        (r.cycles - std::min(compute, r.cycles)) *
        static_cast<std::uint64_t>(cfg.lanes);
    r.micro.stalls[sim::StallReason::SynapseWait] =
        r.micro.laneIdleCycles;
    r.energy.sbReads += bytes / 32; // 16-synapse (32-byte) fetches
    r.energy.multOps += static_cast<std::uint64_t>(
        static_cast<double>(node.fc.macs(node.inShape)) * nzFrac);
    r.energy.addOps = r.energy.multOps;
    r.energy.nmReads += nzVolume * passes / cfg.lanes;
    overlap.deposit(r.cycles);
    return r;
}

/**
 * Section IV-B's software-set encoded/conventional flag: the first
 * conv layer (raw image input) runs conventional on every
 * architecture, every later one encoded on the CNV family.
 */
bool
runsEncoded(Arch arch, const nn::Node &node)
{
    return arch != Arch::Baseline && node.convIndex != 0;
}

/** One architecture's run state in simulateNetworks. */
struct ArchRun
{
    Arch arch = Arch::Baseline;
    NetworkResult result;
    /** Its own memory model (banked runs), never shared. */
    std::optional<mem::MemoryModel> mem;
    OverlapTracker overlap;

    mem::MemoryModel *memory() { return mem ? &*mem : nullptr; }

    /** Fold the model's per-layer counter delta into the layer just
     *  pushed (also resets the global buffer at the boundary). */
    void
    drain()
    {
        if (mem && !result.layers.empty())
            result.layers.back().mem += mem->drainLayer();
    }
};

/** A conv node's exposed synapse load, as its own pseudo-layer. */
void
synapseLoad(const NodeConfig &cfg, const nn::Node &n, ArchRun &run)
{
    LayerResult loadStall;
    loadStall.name = n.name + ":synapse-load";
    loadStall.cycles = dadiannao::convSynapseLoadCycles(
        cfg, n, run.overlap, loadStall.energy);
    loadStall.activity.other =
        loadStall.cycles * static_cast<std::uint64_t>(cfg.nodeLanes());
    // Exposed load time: every lane waits on the stream.
    loadStall.micro.laneIdleCycles =
        loadStall.cycles * static_cast<std::uint64_t>(cfg.lanes);
    loadStall.micro.stalls[sim::StallReason::SynapseWait] =
        loadStall.micro.laneIdleCycles;
    // Synapse traffic goes through the DRAM channel; its wait time is
    // already modelled by the OverlapTracker, so only the traffic
    // counters are kept. When the load is fully hidden (no layer
    // pushed) the traffic drains into the conv layer instead.
    if (run.mem && loadStall.energy.offchipBytes > 0)
        run.mem->dramTransfer(loadStall.energy.offchipBytes);
    if (loadStall.cycles > 0) {
        run.result.layers.push_back(loadStall);
        run.drain();
    }
}

/**
 * Activations past the NM capacity spill off-chip: a whole-node wait
 * on the DRAM channel, reported as its own pseudo-layer like the
 * synapse loads.
 */
void
dramSpill(const NodeConfig &cfg, const nn::Node &n, ArchRun &run)
{
    const std::uint64_t actBytes =
        (n.inShape.volume() + n.conv.outputShape(n.inShape).volume()) * 2;
    if (!run.mem || actBytes <= cfg.nmBytes)
        return;
    const std::uint64_t spillBytes = actBytes - cfg.nmBytes;
    LayerResult spill;
    spill.name = n.name + ":dram-spill";
    spill.cycles = run.mem->dramTransfer(spillBytes);
    spill.energy.offchipBytes += spillBytes;
    spill.activity.other =
        spill.cycles * static_cast<std::uint64_t>(cfg.nodeLanes());
    spill.micro.laneIdleCycles =
        spill.cycles * static_cast<std::uint64_t>(cfg.lanes);
    spill.micro.stalls[sim::StallReason::DramWait] =
        spill.micro.laneIdleCycles;
    if (spill.cycles > 0) {
        run.result.layers.push_back(spill);
        run.drain();
    }
}

} // namespace

LayerResult
convLayerTiming(const NodeConfig &cfg, Arch arch, const nn::Node &node,
                const CountMap &counts, double weightSparsity,
                mem::MemoryModel *mem)
{
    LayerResult conv;
    if (!runsEncoded(arch, node))
        conv = convBaseline(cfg, node.conv, node.inShape, counts,
                            node.convIndex == 0, mem);
    else if (arch == Arch::Cnv2)
        conv = convCnv2(cfg, node.conv, node.inShape, counts,
                        node.convIndex, weightSparsity, mem);
    else
        conv = convCnv(cfg, node.conv, node.inShape, counts, mem);
    conv.name = node.name;
    return conv;
}

LayerResult
fcLayerTiming(const NodeConfig &cfg, Arch arch, const nn::Network &net,
              int nodeId, OverlapTracker &overlap)
{
    const nn::Node &n = net.node(nodeId);
    if (arch != Arch::Baseline && cfg.cnvSkipsFcLayers)
        return fcCnvTiming(cfg, n, fcInputZeroFraction(net, nodeId),
                           overlap);
    return dadiannao::otherLayerTiming(cfg, n, overlap);
}

NetworkResult
simulateNetwork(const NodeConfig &cfg, const nn::Network &net, Arch arch,
                const RunOptions &opts)
{
    return std::move(simulateNetworks(cfg, net, {&arch, 1}, opts)[0]);
}

std::vector<NetworkResult>
simulateNetworks(const NodeConfig &cfg, const nn::Network &net,
                 std::span<const Arch> archs, const RunOptions &opts)
{
    cfg.validate();

    // One memory model per arch of the call: a single owner, so it
    // takes no locks and runs stay deterministic at any --jobs
    // count. The datapath picks the fetch pattern: the baseline's
    // single unit-wide pointer issues fetchSequential, the CNV
    // family's per-slice pointers replay and charge fetch groups
    // (Section IV-B2).
    std::vector<ArchRun> runs(archs.size());
    for (std::size_t a = 0; a < archs.size(); ++a) {
        ArchRun &run = runs[a];
        run.arch = archs[a];
        run.result.network = net.name();
        run.result.architecture = archName(run.arch);
        if (opts.memKind != mem::Kind::Ideal) {
            mem::Geometry geo;
            geo.banks = cfg.nmBanks;
            geo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
            run.mem.emplace(geo);
            run.result.memModelled = true;
        }
    }

    // Every run reads its count maps through a TraceCache; a call
    // without one uses its own for the duration of the run.
    std::optional<TraceCache> localCache;
    if (!opts.cache)
        localCache.emplace();
    TraceCache &cache = opts.cache ? *opts.cache : *localCache;

    std::vector<std::shared_ptr<const CountMap>> counts(runs.size());
    std::vector<EncodedSink> sinks;
    std::vector<LayerResult> walked;
    for (int id = 0; id < net.nodeCount(); ++id) {
        const nn::Node &n = net.node(id);
        switch (n.kind) {
          case nn::NodeKind::Input:
            break;
          case nn::NodeKind::Conv: {
            // Each arch runs synapse-load, drain, conv, drain, spill
            // in order; only the encoded convs run as one walk.
            sinks.clear();
            const CountMap *encodedCounts = nullptr;
            for (std::size_t a = 0; a < runs.size(); ++a) {
                ArchRun &run = runs[a];
                synapseLoad(cfg, n, run);
                // The baseline's cycle count is content-independent,
                // but its zero/non-zero split is not, so every arch
                // consumes the same trace (external when a provider
                // supplies one, synthetic otherwise). Pruning only
                // reaches the encoder (CNV and Cnv2); the baseline
                // always sees unpruned values. Each arch looks its
                // map up, so the cache's lookup counts stay per run.
                const nn::PruneConfig *prune =
                    run.arch != Arch::Baseline ? opts.prune : nullptr;
                counts[a] = cache.countMap(net, id, opts.imageSeed,
                                           opts.traces, prune,
                                           cfg.brickSize);
                if (!runsEncoded(run.arch, n))
                    continue;
                if (!encodedCounts)
                    encodedCounts = counts[a].get();
                CNV_ASSERT(counts[a].get() == encodedCounts,
                           "the encoded archs of one walk read one map");
                const double sparsity =
                    run.arch == Arch::Cnv2 ? opts.weightSparsity : 0.0;
                sinks.push_back({sparsity, run.memory()});
            }
            // The encoded archs share one gather per window group.
            walked.clear();
            if (encodedCounts)
                walked = convEncoded(cfg, n.conv, n.inShape, *encodedCounts,
                                     n.convIndex, sinks);
            std::size_t sink = 0;
            for (std::size_t a = 0; a < runs.size(); ++a) {
                ArchRun &run = runs[a];
                LayerResult conv = runsEncoded(run.arch, n)
                    ? std::move(walked[sink++])
                    : convLayerTiming(cfg, run.arch, n, *counts[a],
                                      opts.weightSparsity, run.memory());
                conv.name = n.name;
                run.overlap.deposit(conv.cycles);
                run.result.layers.push_back(std::move(conv));
                run.drain();
                dramSpill(cfg, n, run);
            }
            break;
          }
          case nn::NodeKind::Fc:
            for (ArchRun &run : runs) {
                run.result.layers.push_back(
                    fcLayerTiming(cfg, run.arch, net, id, run.overlap));
                if (run.mem) {
                    // FC synapse traffic (already overlap-timed).
                    const std::uint64_t bytes =
                        run.result.layers.back().energy.offchipBytes;
                    if (bytes > 0)
                        run.mem->dramTransfer(bytes);
                    run.drain();
                }
            }
            break;
          default:
            for (ArchRun &run : runs) {
                run.result.layers.push_back(
                    dadiannao::otherLayerTiming(cfg, n, run.overlap));
                run.drain();
            }
            break;
        }
    }
    std::vector<NetworkResult> results;
    results.reserve(runs.size());
    for (ArchRun &run : runs) {
        run.result.stampTimeline();
        results.push_back(std::move(run.result));
    }
    return results;
}

} // namespace cnv::timing
