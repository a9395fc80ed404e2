/**
 * @file
 * Cycle-level model of the CNV Encoder subunit (Section IV-B4).
 *
 * One encoder exists per CNV unit, converting 16-neuron output
 * groups from NBout into ZFNAf bricks before they are written to
 * NM. The hardware uses a 16-neuron input buffer (IB), a 16-entry
 * encoded output buffer (OB), and an offset counter: each cycle it
 * examines the next IB neuron, increments the offset counter, and
 * copies (value, offset) to the next OB slot only if the value is
 * non-zero. Encoding is serial — affordable because output neurons
 * are produced far more slowly than inputs are consumed, and a
 * brick is only needed by the *next* layer.
 */

#ifndef CNV_REF_ENCODER_H
#define CNV_REF_ENCODER_H

#include <span>
#include <vector>

#include "ref/engine.h"
#include "sim/trace_event.h"
#include "tensor/fixed16.h"
#include "zfnaf/format.h"

namespace cnv::ref {

/** Serial ZFNAf encoder (one per unit). */
class EncoderUnit : public Clocked
{
  public:
    /** @param brickSize Neurons per brick (16 in the paper). */
    explicit EncoderUnit(int brickSize);

    /**
     * Load a 16-neuron NBout group into the IB.
     * @return false when the encoder is still busy with the
     *         previous group (the caller must retry next cycle).
     */
    bool offer(std::span<const tensor::Fixed16> group);

    /** Still converting the current IB contents? */
    bool busy() const { return cursor_ < fill_; }

    /** Bricks completed so far, in arrival order. */
    const std::vector<std::vector<zfnaf::EncodedNeuron>> &
    bricks() const
    {
        return done_;
    }

    /** Cycles spent actively encoding. */
    std::uint64_t busyCycles() const { return busyCycles_; }

    /**
     * Stream per-brick activity into @p sink: one "encode" span
     * (cat "encoder") on (pid, tid) per converted group, spanning
     * its first examine cycle to its commit, with the produced
     * non-zero count as an "nonZero" argument.
     */
    void setTrace(sim::TraceSink *sink, std::uint32_t pid,
                  std::uint32_t tid);

    void evaluate(Cycle cycle) override;
    void commit(Cycle cycle) override;
    bool done() const override { return !busy(); }

  private:
    int brickSize_;
    std::vector<tensor::Fixed16> ib_;
    std::vector<zfnaf::EncodedNeuron> ob_;
    int fill_ = 0;    ///< valid IB entries
    int cursor_ = 0;  ///< offset counter / IB read position
    std::uint64_t busyCycles_ = 0;
    std::vector<std::vector<zfnaf::EncodedNeuron>> done_;

    sim::TraceSink *trace_ = nullptr;
    std::uint32_t tracePid_ = 0;
    std::uint32_t traceTid_ = 0;
    Cycle groupStart_ = 0;
    bool inGroup_ = false;
};

} // namespace cnv::ref

#endif // CNV_REF_ENCODER_H
