#include "ref/dispatcher.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/stall_profile.h"

namespace cnv::ref {

Dispatcher::Dispatcher(const DispatcherConfig &cfg,
                       std::vector<std::deque<BrickData>> laneBricks)
    : Clocked("dispatcher"),
      cfg_(cfg),
      pendingBricks_(std::move(laneBricks))
{
    CNV_ASSERT(static_cast<int>(pendingBricks_.size()) == cfg_.lanes,
               "need one brick queue per lane/bank");
    CNV_ASSERT(cfg_.bbDepth >= 1, "BB must hold at least one brick");
    CNV_ASSERT(cfg_.nmLatencyCycles >= 1, "NM latency must be >= 1");
    bb_.resize(cfg_.lanes);
    cursor_.assign(cfg_.lanes, 0);
    inflight_.resize(cfg_.lanes);
    out_.resize(cfg_.lanes);
    stalls_.assign(cfg_.lanes, 0);
    drained_.assign(cfg_.lanes, 0);
    busy_.assign(cfg_.lanes, 0);
    brickSeq_.assign(cfg_.lanes, 0);
    runState_.assign(cfg_.lanes, LaneState::None);
    runStart_.assign(cfg_.lanes, 0);
}

void
Dispatcher::setTrace(sim::TraceSink *sink, std::uint32_t pid,
                     std::uint32_t laneTidBase, std::string layerLabel)
{
    trace_ = sink;
    tracePid_ = pid;
    traceTidBase_ = laneTidBase;
    traceLayer_ = std::move(layerLabel);
}

void
Dispatcher::traceLane(int lane, LaneState state, Cycle cycle)
{
    if (!trace_ || state == runState_[lane])
        return;
    const LaneState prev = runState_[lane];
    if (prev != LaneState::None && cycle > runStart_[lane]) {
        const std::uint32_t tid =
            traceTidBase_ + static_cast<std::uint32_t>(lane);
        const Cycle dur = cycle - runStart_[lane];
        if (prev == LaneState::Busy) {
            trace_->complete(tracePid_, tid, "busy", "lane",
                             runStart_[lane], dur);
        } else {
            const char *reason = prev == LaneState::BbEmpty
                ? sim::stallReasonName(sim::StallReason::BrickBufferEmpty)
                : sim::stallReasonName(sim::StallReason::SliceDrained);
            std::vector<sim::TraceArg> args;
            if (!traceLayer_.empty())
                args.emplace_back("layer", traceLayer_);
            trace_->complete(tracePid_, tid, reason, "stall",
                             runStart_[lane], dur, std::move(args));
        }
    }
    runState_[lane] = state;
    runStart_[lane] = cycle;
}

void
Dispatcher::flushTrace(Cycle end)
{
    // Close on the counters' boundary: the engine's final cycle is
    // not sampled (done() already holds), so spans must not cover it
    // either, or folding them would overshoot the idle counters.
    const Cycle close = std::min(end, lastSampled_ + 1);
    for (int lane = 0; lane < cfg_.lanes; ++lane)
        traceLane(lane, LaneState::None, close);
    if (trace_ && lastOccupancy_ > 0) {
        trace_->counter(tracePid_, 0, "bbOccupancy", close, 0.0);
        lastOccupancy_ = 0;
    }
}

const std::vector<DispatchedNeuron> &
Dispatcher::broadcasts(int lane) const
{
    return out_.at(lane);
}

void
Dispatcher::evaluate(Cycle cycle)
{
    std::vector<LaneState> state(cfg_.lanes, LaneState::Drained);
    for (int lane = 0; lane < cfg_.lanes; ++lane) {
        // 1. Deliver fetches that completed by now (banks are
        //    sub-banked/pipelined: one new brick per cycle each).
        while (!inflight_[lane].empty() &&
               inflight_[lane].front() <= cycle) {
            inflight_[lane].pop_front();
            CNV_ASSERT(!pendingBricks_[lane].empty(),
                       "fetch completion without a pending brick");
            bb_[lane].push_back(std::move(pendingBricks_[lane].front()));
            pendingBricks_[lane].pop_front();
        }

        // 2. Broadcast one (value, offset) pair from the BB entry.
        bool didWork = false;
        while (!bb_[lane].empty()) {
            BrickData &brick = bb_[lane].front();
            if (brick.empty()) {
                // All-zero brick: occupies the lane for one cycle
                // (bank-limited) unless idealised away.
                bb_[lane].pop_front();
                cursor_[lane] = 0;
                ++brickSeq_[lane];
                if (cfg_.emptyBrickCostsCycle) {
                    didWork = true; // the cycle is consumed
                    break;
                }
                continue; // free skip: look at the next brick
            }
            out_[lane].push_back({brick[cursor_[lane]].value,
                                  brick[cursor_[lane]].offset,
                                  brickSeq_[lane]});
            if (++cursor_[lane] == brick.size()) {
                bb_[lane].pop_front();
                cursor_[lane] = 0;
                ++brickSeq_[lane];
            }
            didWork = true;
            break;
        }

        const bool laneHasWork = !bb_[lane].empty() ||
                                 !inflight_[lane].empty() ||
                                 !pendingBricks_[lane].empty();
        if (didWork)
            state[lane] = LaneState::Busy;
        else if (laneHasWork)
            state[lane] = LaneState::BbEmpty;

        // 3. Prefetch as early as the BB allows: the fetch pointer
        //    per bank runs ahead of the drain (at most one new
        //    request per bank per cycle).
        const int occupied = static_cast<int>(bb_[lane].size()) +
                             static_cast<int>(inflight_[lane].size());
        if (occupied < cfg_.bbDepth &&
            inflight_[lane].size() < pendingBricks_[lane].size()) {
            inflight_[lane].push_back(cycle + cfg_.nmLatencyCycles);
            ++nmReads_;
        }
    }

    // Observability: sample BB occupancy once per active cycle
    // (post-broadcast, so a drained-and-refilled entry counts once)
    // and attribute every lane's cycle to exactly one state, so
    // busy + bbEmpty + drained == bbSampleCycles x lanes.
    if (!done()) {
        std::uint64_t occupancy = 0;
        for (int lane = 0; lane < cfg_.lanes; ++lane) {
            occupancy += bb_[lane].size();
            switch (state[lane]) {
              case LaneState::Busy:
                ++busy_[lane];
                break;
              case LaneState::BbEmpty:
                ++stalls_[lane];
                break;
              case LaneState::Drained:
                ++drained_[lane];
                break;
              case LaneState::None:
                break;
            }
            traceLane(lane, state[lane], cycle);
        }
        bbOccupancySum_ += occupancy;
        ++bbSampleCycles_;
        lastSampled_ = cycle;
        if (trace_ &&
            static_cast<std::int64_t>(occupancy) != lastOccupancy_) {
            trace_->counter(tracePid_, 0, "bbOccupancy", cycle,
                            static_cast<double>(occupancy));
            lastOccupancy_ = static_cast<std::int64_t>(occupancy);
        }
    }
}

std::uint64_t
Dispatcher::idleBrickBufferEmpty() const
{
    std::uint64_t total = 0;
    for (std::uint64_t s : stalls_)
        total += s;
    return total;
}

std::uint64_t
Dispatcher::idleSliceDrained() const
{
    std::uint64_t total = 0;
    for (std::uint64_t d : drained_)
        total += d;
    return total;
}

double
Dispatcher::meanBbOccupancy() const
{
    return bbSampleCycles_
        ? static_cast<double>(bbOccupancySum_) /
              static_cast<double>(bbSampleCycles_)
        : 0.0;
}

void
Dispatcher::attachStats(sim::StatGroup &parent) const
{
    sim::StatGroup &g = parent.addGroup("dispatcher");
    g.addFormula("nmReads", "16-neuron-wide NM reads issued",
                 [this] { return static_cast<double>(nmReads_); });
    g.addFormula("bbOccupancy", "mean brick-buffer entries occupied",
                 [this] { return meanBbOccupancy(); });
    g.addFormula("stallCycles", "lane-cycles idle while work remained",
                 [this] {
                     return static_cast<double>(idleBrickBufferEmpty());
                 });
    g.addFormula("drainedCycles",
                 "lane-cycles idle after the lane's slice ran dry",
                 [this] {
                     return static_cast<double>(idleSliceDrained());
                 });
}

void
Dispatcher::commit(Cycle)
{
}

bool
Dispatcher::done() const
{
    for (int lane = 0; lane < cfg_.lanes; ++lane) {
        if (!bb_[lane].empty() || !inflight_[lane].empty() ||
            !pendingBricks_[lane].empty())
            return false;
    }
    return true;
}

} // namespace cnv::ref
