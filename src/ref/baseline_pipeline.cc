#include "ref/baseline_pipeline.h"

#include <array>
#include <deque>

#include "ref/engine.h"
#include "sim/logging.h"
#include "sim/stall_profile.h"

namespace cnv::ref {

using dadiannao::NodeConfig;
using tensor::Accum;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

namespace {

/** One 16-neuron fetch block plus its place in the computation. */
struct FetchBlock
{
    std::array<Fixed16, 64> neurons{};
    int valid = 0;   ///< neurons in the block (depth tail may be short)
    int window = 0;  ///< row-major output window index
    int kx = 0;
    int ky = 0;
    int zBase = 0;   ///< first neuron's feature coordinate
    bool last = false;
};

/** Streams the layer's fetch blocks from NM, one per cycle. */
class FetchUnit : public Clocked
{
  public:
    FetchUnit(std::deque<FetchBlock> schedule,
              Latch<FetchBlock> &out, mem::MemoryModel *mem)
        : Clocked("fetch"),
          schedule_(std::move(schedule)),
          out_(out),
          mem_(mem)
    {
    }

    void
    evaluate(Cycle cycle) override
    {
        if (schedule_.empty() || out_.stalled())
            return;
        if (!streaming_) {
            streaming_ = true;
            streamStart_ = cycle;
        }
        streamEnd_ = cycle + 1;
        out_.push(std::move(schedule_.front()));
        schedule_.pop_front();
        ++nmReads_;
        if (mem_)
            mem_->fetchSequential(1);
    }

    void commit(Cycle) override { out_.tick(); }
    bool done() const override { return schedule_.empty(); }

    std::uint64_t nmReads() const { return nmReads_; }

    /** Emit the coalesced NM-streaming span into @p sink. */
    void
    flushTrace(sim::TraceSink *sink, std::uint32_t pid,
               std::uint32_t tid) const
    {
        if (sink && streaming_) {
            sink->complete(pid, tid, "stream", "unit", streamStart_,
                           streamEnd_ - streamStart_);
        }
    }

  private:
    std::deque<FetchBlock> schedule_;
    Latch<FetchBlock> &out_;
    mem::MemoryModel *mem_;
    std::uint64_t nmReads_ = 0;
    bool streaming_ = false;
    Cycle streamStart_ = 0;
    Cycle streamEnd_ = 0;
};

/** The lock-step unit array: 256 multipliers + 16 adder trees. */
class UnitArray : public Clocked
{
  public:
    UnitArray(Latch<FetchBlock> &in, const nn::ConvParams &p,
              const FilterBank &weights,
              std::vector<std::vector<Accum>> &acc, int lanes)
        : Clocked("units"),
          in_(in),
          params_(p),
          weights_(weights),
          acc_(acc),
          lanes_(lanes)
    {
    }

    /** Cycles the array consumed a fetch block (all lanes advance). */
    std::uint64_t busyCycles() const { return busyCycles_; }

    /** Cycles the array waited on the NBin stage (pipeline fill). */
    std::uint64_t idleCycles() const { return idleCycles_; }

    void
    setTrace(sim::TraceSink *sink, std::uint32_t pid, std::uint32_t tid)
    {
        trace_ = sink;
        tracePid_ = pid;
        traceTid_ = tid;
    }

    /** Close the open busy/stall span at @p end. */
    void
    flushTrace(Cycle end)
    {
        traceState(false, end, /*flush=*/true);
    }

    void
    evaluate(Cycle cycle) override
    {
        if (finished_)
            return;
        if (!in_.valid()) {
            ++idleCycles_;
            traceState(false, cycle, false);
            return;
        }
        ++busyCycles_;
        traceState(true, cycle, false);
        const FetchBlock block = in_.pop();
        for (int lane = 0; lane < block.valid; ++lane) {
            const Fixed16 n = block.neurons[lane];
            if (n.isZero())
                continue; // multiplies by zero add nothing
            const int z = block.zBase + lane;
            for (int f = 0; f < params_.filters; ++f) {
                acc_[block.window][f] +=
                    mulRaw(n, weights_.at(f, block.kx, block.ky, z));
            }
        }
        finished_ = block.last;
    }

    void commit(Cycle) override {}
    bool done() const override { return finished_; }

  private:
    /** Coalesce same-state cycles into one span; emit on changes. */
    void
    traceState(bool busy, Cycle cycle, bool flush)
    {
        if (!trace_)
            return;
        if (!flush && open_ && busy == openBusy_)
            return;
        if (open_ && cycle > openStart_) {
            const Cycle dur = cycle - openStart_;
            if (openBusy_) {
                trace_->complete(tracePid_, traceTid_, "busy", "unit",
                                 openStart_, dur);
            } else {
                trace_->complete(
                    tracePid_, traceTid_,
                    sim::stallReasonName(
                        sim::StallReason::BrickBufferEmpty),
                    "stall", openStart_, dur,
                    {sim::TraceArg(
                        "laneCycles",
                        dur * static_cast<std::uint64_t>(lanes_))});
            }
        }
        open_ = !flush;
        openBusy_ = busy;
        openStart_ = cycle;
    }

    Latch<FetchBlock> &in_;
    const nn::ConvParams &params_;
    const FilterBank &weights_;
    std::vector<std::vector<Accum>> &acc_;
    int lanes_;
    bool finished_ = false;
    std::uint64_t busyCycles_ = 0;
    std::uint64_t idleCycles_ = 0;

    sim::TraceSink *trace_ = nullptr;
    std::uint32_t tracePid_ = 0;
    std::uint32_t traceTid_ = 0;
    bool open_ = false;
    bool openBusy_ = false;
    Cycle openStart_ = 0;
};

} // namespace

BaselinePipelineResult
runConvPipelineBaseline(const NodeConfig &cfg, const nn::ConvParams &p,
                        const NeuronTensor &in, const FilterBank &weights,
                        const std::vector<Fixed16> &bias,
                        sim::TraceSink *trace, std::uint32_t tracePid,
                        mem::MemoryModel *mem)
{
    CNV_ASSERT(p.groups == 1, "pipeline models single-group layers");
    CNV_ASSERT(p.filters <= cfg.parallelFilters(),
               "pipeline models single-pass layers");
    CNV_ASSERT(in.shape().z >= cfg.lanes,
               "shallow (packed-row) inputs are out of pipeline scope");

    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    const int blocks = (inShape.z + lanes - 1) / lanes;
    const std::int64_t windows =
        static_cast<std::int64_t>(outShape.x) * outShape.y;

    // Build the fetch schedule: windows in row-major order, valid
    // cells in (ky, kx) order, depth blocks innermost.
    std::deque<FetchBlock> schedule;
    for (std::int64_t w = 0; w < windows; ++w) {
        const int ox = static_cast<int>(w % outShape.x);
        const int oy = static_cast<int>(w / outShape.x);
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
                for (int b = 0; b < blocks; ++b) {
                    FetchBlock block;
                    block.window = static_cast<int>(w);
                    block.kx = kx;
                    block.ky = ky;
                    block.zBase = b * lanes;
                    block.valid =
                        std::min(lanes, inShape.z - block.zBase);
                    for (int l = 0; l < block.valid; ++l)
                        block.neurons[l] =
                            in.at(ix, iy, block.zBase + l);
                    schedule.push_back(std::move(block));
                }
            }
        }
    }
    if (!schedule.empty())
        schedule.back().last = true;

    std::vector<std::vector<Accum>> acc(
        static_cast<std::size_t>(windows),
        std::vector<Accum>(static_cast<std::size_t>(p.filters)));

    Latch<FetchBlock> nbin;
    FetchUnit fetch(std::move(schedule), nbin, mem);
    UnitArray units(nbin, p, weights, acc, lanes);
    if (trace) {
        trace->setProcessName(tracePid, "dadiannao node (structural)");
        trace->setThreadName(tracePid, 1, "unit-array");
        trace->setThreadName(tracePid, 2, "fetch");
        units.setTrace(trace, tracePid, 1);
    }

    Engine engine("baseline-pipeline");
    engine.add(fetch);
    engine.add(units);

    BaselinePipelineResult result;
    result.cycles = engine.run();
    result.nmReads = fetch.nmReads();
    units.flushTrace(engine.now());
    fetch.flushTrace(trace, tracePid, 2);
    result.micro.laneBusyCycles =
        units.busyCycles() * static_cast<std::uint64_t>(lanes);
    result.micro.laneIdleCycles =
        units.idleCycles() * static_cast<std::uint64_t>(lanes);
    result.micro.stalls[sim::StallReason::BrickBufferEmpty] =
        result.micro.laneIdleCycles;
    if (mem)
        result.mem = mem->drainLayer();

    result.output = NeuronTensor(outShape);
    for (std::int64_t w = 0; w < windows; ++w) {
        const int ox = static_cast<int>(w % outShape.x);
        const int oy = static_cast<int>(w / outShape.x);
        for (int f = 0; f < p.filters; ++f) {
            Fixed16 v = Fixed16::productToFixed(acc[w][f]) + bias[f];
            if (p.relu)
                v = v.relu();
            result.output.at(ox, oy, f) = v;
        }
    }
    return result;
}

} // namespace cnv::ref
