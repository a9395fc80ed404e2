/**
 * @file
 * Structural cycle-level CNV pipeline: the complete unit array of
 * Figure 5(b) assembled from Clocked components and driven by an
 * Engine, executing one convolutional layer on a ZFNAf input.
 *
 *   NM banks -> Dispatcher (BB, per-bank fetch pointers)
 *            -> 16 subunit front-ends (offset-indexed SB access,
 *               16 multipliers each)
 *            -> 16 adder trees -> NBout -> Encoder -> NM
 *
 * Where ref/cnv_unit.cc computes per-window lane times in a batch loop
 * (fast, used by experiments), this pipeline steps every component
 * cycle by cycle, including the dispatcher's prefetch machinery —
 * it exists to show that the fast model's timing assumptions hold
 * structurally: outputs are bit-identical, and cycle counts match
 * up to the documented one-time NM fill per window group.
 *
 * Only the filters of one unit are modelled per subunit
 * (the remaining 15 units are timing-identical replicas processing
 * other filters in lock step with the back-end), and layers must
 * fit one filter pass (filters <= parallelFilters) and one group —
 * the pipeline is a validation vehicle, not the experiment path.
 */

#ifndef CNV_REF_CNV_PIPELINE_H
#define CNV_REF_CNV_PIPELINE_H

#include <vector>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "nn/layer.h"
#include "ref/dispatcher.h"
#include "sim/trace_event.h"
#include "tensor/neuron_tensor.h"
#include "zfnaf/format.h"

namespace cnv::ref {

/** Result of a pipeline execution. */
struct PipelineResult
{
    tensor::NeuronTensor output;
    std::uint64_t cycles = 0;
    /** 16-neuron-wide NM reads issued by the dispatcher. */
    std::uint64_t nmReads = 0;
    /** Cycles the encoder spent converting output bricks. */
    std::uint64_t encoderBusyCycles = 0;
    /** ZFNAf bricks produced by the encoder. */
    std::uint64_t encoderBricks = 0;
    /** Dispatcher BB entries occupied, summed per sampled cycle. */
    std::uint64_t bbOccupancySum = 0;
    /** Cycles over which the BB occupancy was sampled. */
    std::uint64_t bbSampleCycles = 0;
    /**
     * One measurement region per window group on the pipeline's
     * continuous timeline ([begin, end) cycle intervals, in order).
     */
    std::vector<Region> regions;
    /**
     * Lane occupancy with reason-attributed idle cycles, measured
     * over the dispatcher's sampled (active) cycles:
     * laneBusyCycles + laneIdleCycles == bbSampleCycles x lanes and
     * micro.stalls.total() == micro.laneIdleCycles (BrickBufferEmpty
     * for NM-fetch waits, SliceDrained for lanes that ran dry).
     */
    dadiannao::MicroTrace micro;

    /** Mean bricks resident in the BB while the dispatcher ran. */
    double
    meanBbOccupancy() const
    {
        return bbSampleCycles ? static_cast<double>(bbOccupancySum) /
                                    static_cast<double>(bbSampleCycles)
                              : 0.0;
    }
};

/**
 * Execute one conv layer through the structural pipeline.
 *
 * @param cfg Node configuration (lane assignment, NBout depth,
 *        empty-brick policy are honoured; groups and multi-pass
 *        layers are rejected).
 * @param dispatchCfg Dispatcher/NM parameters (latency, BB depth).
 * @param trace Optional event sink. When set, the run streams
 *        Chrome trace events under process @p tracePid: window-group
 *        spans on tid 0, per-lane busy/stall spans on tids
 *        1..lanes, encoder "encode" spans on tid lanes+1 (the
 *        encoder drains on its own overlapped clock — see
 *        docs/observability.md), and a "bbOccupancy" counter.
 * @param tracePid Trace process id to emit under (tids as above).
 */
PipelineResult runConvPipeline(const dadiannao::NodeConfig &cfg,
                               const DispatcherConfig &dispatchCfg,
                               const nn::ConvParams &p,
                               const zfnaf::EncodedArray &in,
                               const tensor::FilterBank &weights,
                               const std::vector<tensor::Fixed16> &bias,
                               sim::TraceSink *trace = nullptr,
                               std::uint32_t tracePid = 1);

} // namespace cnv::ref

#endif // CNV_REF_CNV_PIPELINE_H
