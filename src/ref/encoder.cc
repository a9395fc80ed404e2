#include "ref/encoder.h"

#include "sim/logging.h"

namespace cnv::ref {

EncoderUnit::EncoderUnit(int brickSize)
    : Clocked("encoder"), brickSize_(brickSize)
{
    CNV_ASSERT(brickSize >= 1 && brickSize <= 256,
               "encoder brick size out of range");
    ib_.resize(brickSize_);
    ob_.reserve(brickSize_);
}

bool
EncoderUnit::offer(std::span<const tensor::Fixed16> group)
{
    if (busy())
        return false;
    CNV_ASSERT(group.size() <= static_cast<std::size_t>(brickSize_),
               "group larger than a brick");
    for (std::size_t i = 0; i < group.size(); ++i)
        ib_[i] = group[i];
    fill_ = static_cast<int>(group.size());
    cursor_ = 0;
    ob_.clear();
    return true;
}

void
EncoderUnit::setTrace(sim::TraceSink *sink, std::uint32_t pid,
                      std::uint32_t tid)
{
    trace_ = sink;
    tracePid_ = pid;
    traceTid_ = tid;
}

void
EncoderUnit::evaluate(Cycle cycle)
{
    if (!busy())
        return;
    if (!inGroup_) {
        inGroup_ = true;
        groupStart_ = cycle;
    }
    ++busyCycles_;
    // One neuron per cycle: examine, bump the offset counter, and
    // keep only non-zero values.
    const tensor::Fixed16 v = ib_[cursor_];
    if (!v.isZero())
        ob_.push_back({v, static_cast<std::uint8_t>(cursor_)});
    ++cursor_;
}

void
EncoderUnit::commit(Cycle cycle)
{
    if (cursor_ == fill_ && fill_ > 0) {
        if (trace_ && inGroup_) {
            trace_->complete(
                tracePid_, traceTid_, "encode", "encoder", groupStart_,
                cycle + 1 - groupStart_,
                {sim::TraceArg("nonZero",
                               static_cast<std::uint64_t>(ob_.size()))});
        }
        inGroup_ = false;
        // OB now holds the brick in ZFNAf; ship it to NM.
        done_.push_back(ob_);
        ob_.clear();
        fill_ = 0;
        cursor_ = 0;
    }
}

} // namespace cnv::ref
