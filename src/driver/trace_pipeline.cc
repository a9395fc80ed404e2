#include "driver/trace_pipeline.h"

#include <algorithm>

#include "sim/logging.h"

namespace cnv::driver {

std::string
layerStatKey(int index, const std::string &name)
{
    std::string out = name;
    std::replace(out.begin(), out.end(), '.', '_');
    return sim::strfmt("L{}_{}", index, out);
}

void
appendNetworkTrace(sim::TraceSink &sink,
                   const dadiannao::NetworkResult &result,
                   std::uint32_t pid, const std::string &processName)
{
    constexpr std::uint32_t kLayersTid = 0;
    constexpr std::uint32_t kStallTidBase = 1;
    constexpr std::uint32_t kEncoderTid =
        kStallTidBase + sim::kStallReasonCount;
    constexpr std::uint32_t kDramTid = kEncoderTid + 1;

    sink.setProcessName(pid, processName);
    sink.setThreadName(pid, kLayersTid, "layers");
    for (int i = 0; i < sim::kStallReasonCount; ++i) {
        const auto r = static_cast<sim::StallReason>(i);
        sink.setThreadName(pid,
                           kStallTidBase + static_cast<std::uint32_t>(i),
                           sim::stallReasonName(r));
    }
    sink.setThreadName(pid, kEncoderTid, "encoder");
    if (result.memModelled)
        sink.setThreadName(pid, kDramTid, "dram");

    // Layer and stall spans first: they carry the quantitative
    // payload (the stall profile folds from them), so a capped sink
    // must drop the cosmetic counter samples before these.
    int index = 0;
    for (const dadiannao::LayerResult &layer : result.layers) {
        const std::string key = layerStatKey(index++, layer.name);
        if (layer.cycles == 0)
            continue;
        sink.complete(
            pid, kLayersTid, layer.name, "layer", layer.startCycle,
            layer.cycles,
            {sim::TraceArg("laneBusyCycles", layer.micro.laneBusyCycles),
             sim::TraceArg("laneIdleCycles",
                           layer.micro.laneIdleCycles)});
        for (int i = 0; i < sim::kStallReasonCount; ++i) {
            const auto r = static_cast<sim::StallReason>(i);
            const std::uint64_t cycles = layer.micro.stalls[r];
            if (cycles == 0)
                continue;
            sink.complete(pid,
                          kStallTidBase + static_cast<std::uint32_t>(i),
                          sim::stallReasonName(r), "stall",
                          layer.startCycle, layer.cycles,
                          {sim::TraceArg("layer", key),
                           sim::TraceArg("laneCycles", cycles)});
        }
        if (layer.micro.encoderBusyCycles > 0) {
            // The encoder overlaps the next layer in hardware, so
            // its busy count may exceed the layer's own cycles; the
            // span is clamped for display and the real count rides
            // in the args.
            sink.complete(
                pid, kEncoderTid, "encode", "encoder", layer.startCycle,
                std::min(layer.micro.encoderBusyCycles, layer.cycles),
                {sim::TraceArg("busyCycles",
                               layer.micro.encoderBusyCycles),
                 sim::TraceArg("bricks", layer.micro.encoderBricks)});
        }
        if (result.memModelled && layer.mem.dramCycles > 0) {
            // DRAM bursts overlap compute (synapse prefetch), so the
            // channel-busy count may exceed the layer's cycles; clamp
            // for display and carry the real counters in the args.
            sink.complete(
                pid, kDramTid, "dram-burst", "dram", layer.startCycle,
                std::min(layer.mem.dramCycles, layer.cycles),
                {sim::TraceArg("bytes", layer.mem.dramBytes),
                 sim::TraceArg("busyCycles", layer.mem.dramCycles)});
        }
    }

    for (const dadiannao::LayerResult &layer : result.layers) {
        if (layer.cycles == 0)
            continue;
        sink.counter(pid, 0, "laneUtilisation", layer.startCycle,
                     layer.micro.laneUtilisation());
    }
}

sim::StallProfile
buildStallProfile(const dadiannao::NetworkResult &result)
{
    sim::StallProfile profile;
    int index = 0;
    for (const dadiannao::LayerResult &layer : result.layers) {
        const std::string key = layerStatKey(index++, layer.name);
        for (int i = 0; i < sim::kStallReasonCount; ++i) {
            const auto r = static_cast<sim::StallReason>(i);
            const std::uint64_t cycles = layer.micro.stalls[r];
            if (cycles > 0)
                profile.add(key, r, cycles);
        }
    }
    return profile;
}

} // namespace cnv::driver
