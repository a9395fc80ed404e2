#include "ref/cnv_pipeline.h"

#include <algorithm>

#include "dadiannao/assignment.h"
#include "ref/encoder.h"
#include "ref/engine.h"
#include "sim/logging.h"

namespace cnv::ref {

using dadiannao::NodeConfig;
using tensor::Accum;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

namespace {

/** Where a dispatched brick belongs within the window group. */
struct BrickDesc
{
    int window = 0; ///< index within the group
    int kx = 0;
    int ky = 0;
    int gBrick = 0;
};

/**
 * The unit's front-end subunits plus the shared back-end: consumes
 * the dispatcher's broadcasts combinationally (the multiply/reduce
 * pipeline has constant depth, so it does not change cycle counts),
 * accumulating partial output neurons in NBout.
 */
class BackEnd : public Clocked
{
  public:
    BackEnd(const Dispatcher &dispatcher, int lanes,
            const std::vector<std::vector<BrickDesc>> &descs,
            const nn::ConvParams &p, const FilterBank &weights,
            int brickSize, std::vector<std::vector<Accum>> &acc)
        : Clocked("backend"),
          dispatcher_(dispatcher),
          descs_(descs),
          params_(p),
          weights_(weights),
          brickSize_(brickSize),
          acc_(acc),
          readPos_(lanes, 0)
    {
    }

    void
    evaluate(Cycle) override
    {
        for (std::size_t lane = 0; lane < readPos_.size(); ++lane) {
            const auto &stream = dispatcher_.broadcasts(
                static_cast<int>(lane));
            while (readPos_[lane] < stream.size()) {
                const DispatchedNeuron &n = stream[readPos_[lane]++];
                const BrickDesc &d = descs_[lane][n.brickSeq];
                const int z = d.gBrick * brickSize_ + n.offset;
                for (int f = 0; f < params_.filters; ++f) {
                    acc_[d.window][f] +=
                        mulRaw(n.value, weights_.at(f, d.kx, d.ky, z));
                }
            }
        }
    }

    void commit(Cycle) override {}
    bool done() const override { return true; /* slave to dispatcher */ }

  private:
    const Dispatcher &dispatcher_;
    const std::vector<std::vector<BrickDesc>> &descs_;
    const nn::ConvParams &params_;
    const FilterBank &weights_;
    int brickSize_;
    std::vector<std::vector<Accum>> &acc_;
    std::vector<std::size_t> readPos_;
};

} // namespace

PipelineResult
runConvPipeline(const NodeConfig &cfg, const DispatcherConfig &dispatchCfg,
                const nn::ConvParams &p, const zfnaf::EncodedArray &in,
                const FilterBank &weights,
                const std::vector<Fixed16> &bias, sim::TraceSink *trace,
                std::uint32_t tracePid)
{
    CNV_ASSERT(p.groups == 1, "pipeline models single-group layers");
    CNV_ASSERT(p.filters <= cfg.parallelFilters(),
               "pipeline models single-pass layers");
    CNV_ASSERT(cfg.brickSize == in.brickSize(),
               "brick size mismatch");

    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    const int bricksPerCell =
        (inShape.z + cfg.brickSize - 1) / cfg.brickSize;
    const int inFlight = cfg.windowsInFlight();

    PipelineResult result;
    result.output = NeuronTensor(outShape);

    // Trace track layout under tracePid: tid 0 carries window-group
    // spans (and the bbOccupancy counter), tids 1..lanes the lanes,
    // tid lanes+1 the encoder (which drains on its own clock).
    const std::uint32_t laneTidBase = 1;
    const std::uint32_t encoderTid =
        laneTidBase + static_cast<std::uint32_t>(lanes);
    if (trace) {
        trace->setProcessName(tracePid, "cnv unit (structural)");
        trace->setThreadName(tracePid, 0, "window-groups");
        for (int lane = 0; lane < lanes; ++lane) {
            trace->setThreadName(
                tracePid, laneTidBase + static_cast<std::uint32_t>(lane),
                sim::strfmt("lane{}", lane));
        }
        trace->setThreadName(tracePid, encoderTid, "encoder (own clock)");
    }

    EncoderUnit encoder(cfg.brickSize);
    if (trace)
        encoder.setTrace(trace, tracePid, encoderTid);
    // One engine per concern, reused across window groups so the
    // compute timeline is continuous and each group becomes a
    // measurement region on it. The encoder drains on its own clock
    // (overlapped with the next group in hardware, so its cycles do
    // not add to the layer's).
    Engine engine("cnv-pipeline");
    Engine encEngine("encoder-drain");
    encEngine.add(encoder);

    std::vector<std::vector<Accum>> acc(
        inFlight, std::vector<Accum>(static_cast<std::size_t>(p.filters)));

    const std::int64_t totalWindows =
        static_cast<std::int64_t>(outShape.x) * outShape.y;

    for (std::int64_t w0 = 0; w0 < totalWindows; w0 += inFlight) {
        const int batch = static_cast<int>(
            std::min<std::int64_t>(inFlight, totalWindows - w0));
        for (int w = 0; w < batch; ++w)
            std::fill(acc[w].begin(), acc[w].end(), Accum{0});

        // Slice the window group into per-lane brick queues, exactly
        // as the fast model enumerates them.
        std::vector<std::deque<BrickData>> laneBricks(lanes);
        std::vector<std::vector<BrickDesc>> laneDescs(lanes);
        int windowSeq = 0;
        for (int w = 0; w < batch; ++w) {
            const int ox = static_cast<int>((w0 + w) % outShape.x);
            const int oy = static_cast<int>((w0 + w) / outShape.x);
            const int x0 = ox * p.stride - p.pad;
            const int y0 = oy * p.stride - p.pad;
            for (int ky = 0; ky < p.fy; ++ky) {
                const int iy = y0 + ky;
                if (iy < 0 || iy >= inShape.y)
                    continue;
                for (int kx = 0; kx < p.fx; ++kx) {
                    const int ix = x0 + kx;
                    if (ix < 0 || ix >= inShape.x)
                        continue;
                    for (int b = 0; b < bricksPerCell; ++b) {
                        const int lane =
                            laneOf(cfg.laneAssignment, ix, iy, b,
                                   windowSeq++, lanes);
                        const auto entries = in.brick(ix, iy, b);
                        laneBricks[lane].emplace_back(entries.begin(),
                                                      entries.end());
                        laneDescs[lane].push_back({w, kx, ky, b});
                    }
                }
            }
        }

        DispatcherConfig dcfg = dispatchCfg;
        dcfg.lanes = lanes;
        dcfg.emptyBrickCostsCycle = cfg.emptyBrickCostsCycle;
        Dispatcher dispatcher(dcfg, std::move(laneBricks));
        if (trace)
            dispatcher.setTrace(trace, tracePid, laneTidBase, "");
        BackEnd backend(dispatcher, lanes, laneDescs, p, weights,
                        cfg.brickSize, acc);

        engine.clear();
        engine.add(dispatcher);
        engine.add(backend);
        engine.beginRegion(sim::strfmt("window-group@{}", w0));
        const Cycle groupBegin = engine.now();
        result.cycles += engine.run();
        engine.endRegion();
        dispatcher.flushTrace(engine.now());
        if (trace && engine.now() > groupBegin) {
            trace->complete(tracePid, 0,
                            sim::strfmt("window-group@{}", w0), "pipeline",
                            groupBegin, engine.now() - groupBegin);
        }
        result.nmReads += dispatcher.nmReads();
        result.bbOccupancySum += dispatcher.bbOccupancySum();
        result.bbSampleCycles += dispatcher.bbSampleCycles();
        for (int lane = 0; lane < lanes; ++lane) {
            result.micro.laneBusyCycles += dispatcher.busyCycles(lane);
            result.micro.laneIdleCycles += dispatcher.stallCycles(lane) +
                                           dispatcher.drainedCycles(lane);
        }
        result.micro.stalls[sim::StallReason::BrickBufferEmpty] +=
            dispatcher.idleBrickBufferEmpty();
        result.micro.stalls[sim::StallReason::SliceDrained] +=
            dispatcher.idleSliceDrained();

        // Drain NBout through the encoder, 16 output neurons at a
        // time (serial, overlapped with the next group in hardware).
        for (int w = 0; w < batch; ++w) {
            const int ox = static_cast<int>((w0 + w) % outShape.x);
            const int oy = static_cast<int>((w0 + w) / outShape.x);
            std::vector<Fixed16> group;
            group.reserve(cfg.brickSize);
            for (int f0 = 0; f0 < p.filters; f0 += cfg.brickSize) {
                group.clear();
                const int fEnd = std::min(p.filters, f0 + cfg.brickSize);
                for (int f = f0; f < fEnd; ++f) {
                    Fixed16 v =
                        Fixed16::productToFixed(acc[w][f]) + bias[f];
                    if (p.relu)
                        v = v.relu();
                    result.output.at(ox, oy, f) = v;
                    group.push_back(v);
                }
                CNV_ASSERT(encoder.offer({group.data(), group.size()}),
                           "encoder must be idle between groups");
                encEngine.run();
            }
        }
        result.encoderBusyCycles = encoder.busyCycles();
    }

    result.encoderBricks = encoder.bricks().size();
    result.regions = engine.regions();
    result.micro.encoderBusyCycles = result.encoderBusyCycles;
    result.micro.encoderBricks = result.encoderBricks;
    result.micro.bbOccupancySum = result.bbOccupancySum;
    result.micro.bbSampleCycles = result.bbSampleCycles;
    return result;
}

} // namespace cnv::ref
