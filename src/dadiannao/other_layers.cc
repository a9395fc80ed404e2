#include "dadiannao/other_layers.h"

#include <algorithm>

#include "sim/logging.h"

namespace cnv::dadiannao {

namespace {

/** Sum over output positions of the valid (clamped) window extent. */
std::uint64_t
validWindowSum(int outDim, int inDim, int k, int stride, int pad)
{
    std::uint64_t total = 0;
    for (int o = 0; o < outDim; ++o) {
        const int lo = std::max(0, o * stride - pad);
        const int hi = std::min(inDim, o * stride - pad + k);
        total += static_cast<std::uint64_t>(std::max(0, hi - lo));
    }
    return total;
}

} // namespace

std::uint64_t
convSynapseLoadCycles(const NodeConfig &cfg, const nn::Node &node,
                      OverlapTracker &overlap, EnergyCounters &energy)
{
    const std::uint64_t bytes = node.synapses() * 2;
    energy.offchipBytes += bytes;
    const std::uint64_t loadCycles =
        (bytes + cfg.offchipBytesPerCycle - 1) / cfg.offchipBytesPerCycle;
    return overlap.expose(loadCycles);
}

LayerResult
otherLayerTiming(const NodeConfig &cfg, const nn::Node &node,
                 OverlapTracker &overlap)
{
    LayerResult result;
    result.name = node.name;
    const std::uint64_t nodeLanes =
        static_cast<std::uint64_t>(cfg.nodeLanes());
    std::uint64_t inputReads = 0;
    std::uint64_t cycles = 0;
    // Cycles in which the lanes do datapath work; the remainder (FC
    // layers bound by the synapse stream) is exposed memory time.
    std::uint64_t busyCycles = 0;
    bool memoryBound = false;

    switch (node.kind) {
      case nn::NodeKind::Pool: {
        const auto out = node.pool.outputShape(node.inShape);
        const std::uint64_t ax = validWindowSum(
            out.x, node.inShape.x, node.pool.k, node.pool.stride,
            node.pool.pad);
        const std::uint64_t ay = validWindowSum(
            out.y, node.inShape.y, node.pool.k, node.pool.stride,
            node.pool.pad);
        inputReads = ax * ay * static_cast<std::uint64_t>(node.inShape.z);
        cycles = (inputReads + nodeLanes - 1) / nodeLanes;
        break;
      }
      case nn::NodeKind::Lrn: {
        const std::uint64_t perPosition = validWindowSum(
            node.inShape.z, node.inShape.z, node.lrnParams.localSize, 1,
            node.lrnParams.localSize / 2);
        inputReads = perPosition * static_cast<std::uint64_t>(node.inShape.x) *
                     static_cast<std::uint64_t>(node.inShape.y);
        cycles = (inputReads + nodeLanes - 1) / nodeLanes;
        break;
      }
      case nn::NodeKind::Fc: {
        const std::uint64_t volume = node.inShape.volume();
        const std::uint64_t passes =
            (node.fc.outputs + cfg.parallelFilters() - 1) /
            cfg.parallelFilters();
        const std::uint64_t compute =
            passes * ((volume + cfg.lanes - 1) / cfg.lanes);
        const std::uint64_t bytes = node.synapses() * 2;
        result.energy.offchipBytes += bytes;
        const std::uint64_t load =
            (bytes + cfg.offchipBytesPerCycle - 1) / cfg.offchipBytesPerCycle;
        const std::uint64_t exposed = overlap.expose(load);
        // Streaming: compute proceeds as synapses arrive, so the
        // layer takes the slower of datapath and exposed memory time.
        cycles = std::max(compute, exposed);
        busyCycles = compute;
        memoryBound = true;
        inputReads = volume * passes;
        // Each synapse is used exactly once, fetched in
        // brick-wide (16-synapse) sublane reads.
        result.energy.sbReads +=
            node.synapses() / static_cast<std::uint64_t>(cfg.brickSize);
        result.energy.multOps += node.fc.macs(node.inShape);
        result.energy.addOps += node.fc.macs(node.inShape);
        break;
      }
      case nn::NodeKind::Concat:
        // Addressing only: the encoder already wrote bricks at their
        // aligned positions, so concatenation costs no cycles.
        cycles = 0;
        break;
      case nn::NodeKind::Softmax:
        inputReads = node.inShape.volume();
        cycles = (inputReads + nodeLanes - 1) / nodeLanes;
        break;
      case nn::NodeKind::Input:
        cycles = 0;
        break;
      case nn::NodeKind::Conv:
        CNV_PANIC("conv layers are handled by the architecture models");
    }

    result.cycles = cycles;
    result.activity.other = cycles * nodeLanes;
    if (!memoryBound)
        busyCycles = cycles;
    result.micro.laneBusyCycles =
        busyCycles * static_cast<std::uint64_t>(cfg.lanes);
    result.micro.laneIdleCycles =
        (cycles - busyCycles) * static_cast<std::uint64_t>(cfg.lanes);
    result.micro.stalls[sim::StallReason::SynapseWait] =
        result.micro.laneIdleCycles;
    if (node.kind != nn::NodeKind::Concat &&
        node.kind != nn::NodeKind::Input) {
        result.energy.nmReads += inputReads / cfg.lanes;
        result.energy.nmWrites +=
            node.outShape.volume() / static_cast<std::size_t>(cfg.lanes) +
            1;
    }
    overlap.deposit(cycles);
    return result;
}

} // namespace cnv::dadiannao
