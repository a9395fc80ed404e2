/**
 * @file
 * Structural cycle-level DaDianNao pipeline (Figure 5(a) / Section
 * III-B): a fetch unit streams 16-neuron fetch blocks from NM
 * through a registered NBin stage to the lock-step unit array,
 * whose 256 multipliers and 16 adder trees accumulate partial
 * output neurons in NBout.
 *
 * Counterpart of ref/cnv_pipeline.*: it validates that the baseline
 * batch model's cycle counts correspond to a real broadcast
 * pipeline (one block per cycle, constant pipeline depth), and it
 * makes the contrast with CNV concrete — here every lane advances
 * with the block, zeros included.
 *
 * Packed-row (shallow-input) layers and multi-pass/grouped layers
 * are out of scope; like the CNV pipeline this is a validation
 * vehicle, not the experiment path.
 */

#ifndef CNV_REF_BASELINE_PIPELINE_H
#define CNV_REF_BASELINE_PIPELINE_H

#include <vector>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "mem/memory_model.h"
#include "nn/layer.h"
#include "sim/trace_event.h"
#include "tensor/neuron_tensor.h"

namespace cnv::ref {

/** Result of a baseline pipeline execution. */
struct BaselinePipelineResult
{
    tensor::NeuronTensor output;
    std::uint64_t cycles = 0;
    std::uint64_t nmReads = 0;
    /**
     * Lock-step lane occupancy: the whole array is busy or idle
     * together, so laneBusyCycles + laneIdleCycles == cycles x lanes
     * and every idle lane-cycle is a BrickBufferEmpty (NBin fill)
     * wait — micro.stalls.total() == micro.laneIdleCycles.
     */
    dadiannao::MicroTrace micro;
    /** Memory counters when a model was supplied (zero otherwise). */
    mem::Counters mem;
};

/**
 * Execute one conv layer through the structural baseline pipeline.
 *
 * @param trace Optional event sink. When set, the run streams
 *        Chrome trace events under process @p tracePid, mirroring
 *        the CNV pipeline's track layout so the two traces diff
 *        side by side: a unit-array track (tid 1) with busy/stall
 *        spans and a fetch-stream track (tid 2).
 * @param tracePid Trace process id to emit under.
 * @param mem Optional memory model the fetch unit's NM reads are
 *        issued against (sequential single-pointer stream, so a
 *        banked NM never conflicts); drained into result.mem.
 */
BaselinePipelineResult
runConvPipelineBaseline(const dadiannao::NodeConfig &cfg,
                        const nn::ConvParams &p,
                        const tensor::NeuronTensor &in,
                        const tensor::FilterBank &weights,
                        const std::vector<tensor::Fixed16> &bias,
                        sim::TraceSink *trace = nullptr,
                        std::uint32_t tracePid = 2,
                        mem::MemoryModel *mem = nullptr);

} // namespace cnv::ref

#endif // CNV_REF_BASELINE_PIPELINE_H
