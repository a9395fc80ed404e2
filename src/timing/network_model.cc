#include "timing/network_model.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

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

} // namespace

LayerResult
convLayerTiming(const NodeConfig &cfg, Arch arch, const nn::Node &node,
                const CountMap &counts, double weightSparsity,
                mem::MemoryModel *mem)
{
    // Section IV-B's software-set encoded/conventional flag: the
    // first conv layer (raw image input) runs conventional, every
    // later one encoded.
    LayerResult conv;
    if (arch == Arch::Baseline || node.convIndex == 0)
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
    cfg.validate();

    NetworkResult result;
    result.network = net.name();
    result.architecture = archName(arch);

    // One model per simulateNetwork call (per arch x image task):
    // a single owner, so it takes no locks and runs stay
    // deterministic at any --jobs count. The datapath picks the
    // fetch pattern: the baseline's single unit-wide pointer issues
    // fetchSequential, the CNV family's per-slice pointers
    // fetchGroup (Section IV-B2).
    std::optional<mem::MemoryModel> memModel;
    if (opts.memKind != mem::Kind::Ideal) {
        mem::Geometry geo;
        geo.banks = cfg.nmBanks;
        geo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
        memModel.emplace(geo);
        result.memModelled = true;
    }
    // Fold the model's per-layer counter delta into the layer just
    // pushed (also resets the global buffer at the boundary).
    const auto drainInto = [&] {
        if (memModel && !result.layers.empty())
            result.layers.back().mem += memModel->drainLayer();
    };

    // Every run reads its count maps through a TraceCache; a call
    // without one uses its own for the duration of the run.
    std::optional<TraceCache> localCache;
    if (!opts.cache)
        localCache.emplace();
    TraceCache &cache = opts.cache ? *opts.cache : *localCache;

    OverlapTracker overlap;

    for (int id = 0; id < net.nodeCount(); ++id) {
        const nn::Node &n = net.node(id);
        switch (n.kind) {
          case nn::NodeKind::Input:
            break;
          case nn::NodeKind::Conv: {
            LayerResult loadStall;
            loadStall.name = n.name + ":synapse-load";
            loadStall.cycles = dadiannao::convSynapseLoadCycles(
                cfg, n, overlap, loadStall.energy);
            loadStall.activity.other =
                loadStall.cycles *
                static_cast<std::uint64_t>(cfg.nodeLanes());
            // Exposed load time: every lane waits on the stream.
            loadStall.micro.laneIdleCycles =
                loadStall.cycles * static_cast<std::uint64_t>(cfg.lanes);
            loadStall.micro.stalls[sim::StallReason::SynapseWait] =
                loadStall.micro.laneIdleCycles;
            // Synapse traffic goes through the DRAM channel; its
            // wait time is already modelled by the OverlapTracker,
            // so only the traffic counters are kept. When the load
            // is fully hidden (no layer pushed) the traffic drains
            // into the conv layer below instead.
            if (memModel && loadStall.energy.offchipBytes > 0)
                memModel->dramTransfer(loadStall.energy.offchipBytes);
            if (loadStall.cycles > 0) {
                result.layers.push_back(loadStall);
                drainInto();
            }

            // The baseline's cycle count is content-independent, but
            // its zero/non-zero activity split is not, so both
            // architectures consume the same trace (external when a
            // provider supplies one, synthetic otherwise). Pruning
            // only reaches the encoder (CNV and Cnv2); the baseline
            // always sees unpruned values.
            const nn::PruneConfig *prune =
                arch != Arch::Baseline ? opts.prune : nullptr;
            const std::shared_ptr<const CountMap> counts =
                cache.countMap(net, id, opts.imageSeed, opts.traces, prune,
                               cfg.brickSize);

            LayerResult conv = convLayerTiming(cfg, arch, n, *counts,
                                               opts.weightSparsity,
                                               memModel ? &*memModel
                                                        : nullptr);
            overlap.deposit(conv.cycles);
            result.layers.push_back(conv);
            drainInto();

            // Activations past the NM capacity spill off-chip: a
            // whole-node wait on the DRAM channel, reported as its
            // own pseudo-layer like the synapse loads above.
            if (memModel) {
                const std::uint64_t actBytes =
                    (n.inShape.volume() +
                     n.conv.outputShape(n.inShape).volume()) * 2;
                if (actBytes > cfg.nmBytes) {
                    const std::uint64_t spillBytes =
                        actBytes - cfg.nmBytes;
                    LayerResult spill;
                    spill.name = n.name + ":dram-spill";
                    spill.cycles = memModel->dramTransfer(spillBytes);
                    spill.energy.offchipBytes += spillBytes;
                    spill.activity.other =
                        spill.cycles *
                        static_cast<std::uint64_t>(cfg.nodeLanes());
                    spill.micro.laneIdleCycles =
                        spill.cycles *
                        static_cast<std::uint64_t>(cfg.lanes);
                    spill.micro.stalls[sim::StallReason::DramWait] =
                        spill.micro.laneIdleCycles;
                    if (spill.cycles > 0) {
                        result.layers.push_back(spill);
                        drainInto();
                    }
                }
            }
            break;
          }
          case nn::NodeKind::Fc:
            result.layers.push_back(
                fcLayerTiming(cfg, arch, net, id, overlap));
            if (memModel) {
                // FC synapse traffic (already overlap-timed).
                const std::uint64_t bytes =
                    result.layers.back().energy.offchipBytes;
                if (bytes > 0)
                    memModel->dramTransfer(bytes);
                drainInto();
            }
            break;
          default:
            result.layers.push_back(
                dadiannao::otherLayerTiming(cfg, n, overlap));
            drainInto();
            break;
        }
    }
    result.stampTimeline();
    return result;
}

} // namespace cnv::timing
