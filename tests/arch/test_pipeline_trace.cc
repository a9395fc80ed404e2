/**
 * @file
 * Trace emission from the structural pipelines: both architectures
 * stream Chrome trace events whose stall spans fold back to exactly
 * the idle lane-cycles the pipeline reports, and whose JSON is
 * well formed (parsed with the shared in-test parser) with
 * non-overlapping, time-ordered spans on every lane track.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "nn/ops.h"
#include "ref/baseline_pipeline.h"
#include "ref/cnv_pipeline.h"
#include "sim/rng.h"
#include "sim/stall_profile.h"
#include "support/json_parser.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using ref::DispatcherConfig;
using dadiannao::NodeConfig;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using testsupport::Json;
using testsupport::Parser;

struct LayerSetup
{
    nn::ConvParams p;
    NeuronTensor input;
    FilterBank weights;
    std::vector<Fixed16> bias;
};

LayerSetup
makeSetup(int ix, int iy, int iz, int filters, int k, double sparsity,
          std::uint64_t seed)
{
    LayerSetup s;
    s.p.filters = filters;
    s.p.fx = s.p.fy = k;
    s.p.stride = 1;
    s.p.pad = k / 2;

    sim::Rng rng(seed);
    s.input = NeuronTensor(ix, iy, iz);
    for (Fixed16 &v : s.input)
        v = rng.bernoulli(sparsity)
            ? Fixed16{}
            : Fixed16::fromRaw(static_cast<std::int16_t>(
                  rng.uniformInt(std::int64_t{1}, std::int64_t{200})));
    s.weights = FilterBank(filters, k, k, iz);
    for (std::size_t i = 0; i < s.weights.size(); ++i)
        s.weights.data()[i] = Fixed16::fromRaw(static_cast<std::int16_t>(
            rng.uniformInt(std::int64_t{-50}, std::int64_t{50})));
    s.bias.resize(filters);
    for (Fixed16 &b : s.bias)
        b = Fixed16::fromRaw(
            static_cast<std::int16_t>(rng.uniformInt(std::int64_t{-30},
                                                     std::int64_t{30})));
    return s;
}

/** Run both structural pipelines into one sink (CNV pid 1, base 2). */
struct TracedRun
{
    explicit TracedRun(const LayerSetup &s)
    {
        const NodeConfig cfg;
        const auto enc = zfnaf::encode(s.input, cfg.brickSize);
        cnv = ref::runConvPipeline(cfg, DispatcherConfig{}, s.p, enc,
                                   s.weights, s.bias, &trace, 1);
        base = ref::runConvPipelineBaseline(cfg, s.p, s.input,
                                            s.weights, s.bias,
                                            &trace, 2);
    }

    sim::TraceSink trace;
    ref::PipelineResult cnv;
    ref::BaselinePipelineResult base;
};

TEST(PipelineTrace, StallSpansFoldToReportedIdleCycles)
{
    const TracedRun r(makeSetup(6, 6, 48, 16, 3, 0.6, 31));

    // Every idle lane-cycle carries exactly one reason.
    EXPECT_EQ(r.cnv.micro.stalls.total(), r.cnv.micro.laneIdleCycles);
    EXPECT_EQ(r.base.micro.stalls.total(), r.base.micro.laneIdleCycles);
    // The lock-step baseline only ever waits on the NBin fill.
    EXPECT_EQ(r.base.micro.stalls[sim::StallReason::BrickBufferEmpty],
              r.base.micro.laneIdleCycles);

    // Lane occupancy partitions the sampled cycles.
    const DispatcherConfig dcfg;
    EXPECT_EQ(r.cnv.micro.laneBusyCycles + r.cnv.micro.laneIdleCycles,
              r.cnv.bbSampleCycles *
                  static_cast<std::uint64_t>(dcfg.lanes));

    // Folding each process's stall spans recovers its idle total.
    sim::StallProfile cnvProfile;
    EXPECT_EQ(cnvProfile.addFromTrace(r.trace, 1), 0u);
    EXPECT_EQ(cnvProfile.totals().total(), r.cnv.micro.laneIdleCycles);
    EXPECT_EQ(cnvProfile.totals(), r.cnv.micro.stalls);

    sim::StallProfile baseProfile;
    EXPECT_EQ(baseProfile.addFromTrace(r.trace, 2), 0u);
    EXPECT_EQ(baseProfile.totals().total(), r.base.micro.laneIdleCycles);
    EXPECT_EQ(baseProfile.totals(), r.base.micro.stalls);
}

TEST(PipelineTrace, EmitsWellFormedOrderedNonOverlappingSpans)
{
    TracedRun r(makeSetup(8, 8, 32, 16, 3, 0.5, 37));
    EXPECT_EQ(r.trace.droppedEvents(), 0u);
    EXPECT_FALSE(r.trace.events().empty());

    std::ostringstream os;
    r.trace.writeJson(os);
    Json doc = Parser(os.str()).parse();
    EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
    EXPECT_EQ(doc.at("metadata").at("clockDomain").text, "cycles");

    // Spans per (pid, tid) lane: required fields, and — record order
    // being emission order — strictly time-ordered without overlap.
    std::map<std::pair<double, double>, double> laneEnd;
    std::map<std::pair<double, double>, double> counterTs;
    std::size_t spans = 0, counters = 0;
    bool sawStall = false, sawBusy = false, sawEncode = false;
    for (const Json &e : doc.at("traceEvents").array) {
        const std::string ph = e.at("ph").text;
        if (ph == "M")
            continue;
        const std::pair<double, double> lane{e.at("pid").number,
                                             e.at("tid").number};
        EXPECT_FALSE(e.at("name").text.empty());
        if (ph == "X") {
            ++spans;
            const double ts = e.at("ts").number;
            const double dur = e.at("dur").number;
            EXPECT_GT(dur, 0.0);
            auto [it, fresh] = laneEnd.emplace(lane, 0.0);
            if (!fresh) {
                EXPECT_GE(ts, it->second)
                    << "overlap on pid " << lane.first << " tid "
                    << lane.second;
            }
            it->second = ts + dur;
            const std::string cat = e.at("cat").text;
            sawStall |= cat == "stall";
            sawBusy |= cat == "lane" || cat == "unit";
            sawEncode |= cat == "encoder";
        } else if (ph == "C") {
            ++counters;
            const double ts = e.at("ts").number;
            auto [it, fresh] = counterTs.emplace(lane, ts);
            if (!fresh) {
                EXPECT_GE(ts, it->second) << "counter ts not monotone";
                it->second = ts;
            }
        }
    }
    EXPECT_GT(spans, 0u);
    EXPECT_GT(counters, 0u);
    EXPECT_TRUE(sawStall);
    EXPECT_TRUE(sawBusy);
    EXPECT_TRUE(sawEncode);
}

TEST(PipelineTrace, TracingDoesNotPerturbResults)
{
    const LayerSetup s = makeSetup(6, 6, 32, 16, 3, 0.5, 41);
    const NodeConfig cfg;
    const auto enc = zfnaf::encode(s.input, cfg.brickSize);

    const auto plain = ref::runConvPipeline(cfg, DispatcherConfig{}, s.p,
                                            enc, s.weights, s.bias);
    sim::TraceSink trace;
    const auto traced = ref::runConvPipeline(cfg, DispatcherConfig{}, s.p,
                                             enc, s.weights, s.bias,
                                             &trace, 1);
    EXPECT_EQ(traced.output, plain.output);
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.micro.laneBusyCycles, plain.micro.laneBusyCycles);
    EXPECT_EQ(traced.micro.laneIdleCycles, plain.micro.laneIdleCycles);
    EXPECT_EQ(traced.output, nn::conv2d(s.input, s.weights, s.bias, s.p));
}

} // namespace
