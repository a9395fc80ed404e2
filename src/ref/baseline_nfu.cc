#include "ref/baseline_nfu.h"

#include <algorithm>

#include "sim/logging.h"

namespace cnv::ref {

using dadiannao::Activity;
using dadiannao::EnergyCounters;
using dadiannao::NodeConfig;
using tensor::Accum;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

ConvSimResult
simulateConvBaseline(const NodeConfig &cfg, const nn::ConvParams &p,
                     const NeuronTensor &in, const FilterBank &weights,
                     const std::vector<Fixed16> &bias, bool isConv1)
{
    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();

    ConvSimResult result;
    result.timing.name = "conv";
    result.output = NeuronTensor(outShape);

    Activity &act = result.timing.activity;
    EnergyCounters &en = result.timing.energy;
    std::uint64_t cycles = 0;

    // Shallow inputs (depth below the fetch-block size, i.e., the
    // first layer's 3-feature image) would waste most lanes if
    // fetch blocks were taken per (x, y) column. Fetch blocks are
    // 16 *contiguous* neurons, and with depth-fastest storage a
    // window row spans Fx x depth contiguous values, so the blocks
    // pack across the x dimension instead. Lanes that fall outside
    // the window within a block carry neighbouring-column data and
    // do no useful work.
    const bool packedRows = depthPerGroup < lanes && p.groups == 1;

    // Per-(window, filter) accumulators — the NBout partial sums.
    std::vector<Accum> acc(static_cast<std::size_t>(p.filters));

    for (int oy = 0; oy < outShape.y; ++oy) {
        for (int ox = 0; ox < outShape.x; ++ox) {
            std::fill(acc.begin(), acc.end(), Accum{0});
            const int x0 = ox * p.stride - p.pad;
            const int y0 = oy * p.stride - p.pad;

            for (int g = 0; g < p.groups; ++g) {
                const int zBase = g * depthPerGroup;
                const int fBase = g * filtersPerGroup;
                const int passes = (filtersPerGroup + parallel - 1) / parallel;

                for (int pass = 0; pass < passes; ++pass) {
                    const int fStart = fBase + pass * parallel;
                    const int fCount =
                        std::min(parallel, fBase + filtersPerGroup - fStart);
                    // Units hosting at least one active filter this
                    // pass; idle units burn no SB energy.
                    const int activeUnits =
                        (fCount + cfg.filtersPerUnit - 1) / cfg.filtersPerUnit;

                    auto chargeCycle = [&] {
                        ++cycles;
                        en.nmReads += 1;
                        en.nbinWrites +=
                            static_cast<std::uint64_t>(lanes) * cfg.units;
                        en.nbinReads +=
                            static_cast<std::uint64_t>(lanes) * cfg.units;
                        en.sbReads +=
                            static_cast<std::uint64_t>(lanes) * activeUnits;
                        en.multOps +=
                            static_cast<std::uint64_t>(lanes) * fCount;
                        en.addOps +=
                            static_cast<std::uint64_t>(lanes) * fCount;
                    };
                    auto chargeLane = [&](Fixed16 n) {
                        // Activity is accounted per (unit, lane,
                        // cycle): Fig. 10.
                        const std::uint64_t events = cfg.units;
                        if (isConv1)
                            act.conv1 += events;
                        else if (n.isZero())
                            act.zero += events;
                        else
                            act.nonZero += events;
                    };

                    for (int ky = 0; ky < p.fy; ++ky) {
                        const int iy = y0 + ky;
                        if (iy < 0 || iy >= inShape.y)
                            continue; // padding skipped by control
                        if (packedRows) {
                            // Blocks pack a whole window row.
                            const int xs = std::max(x0, 0);
                            const int xe = std::min(x0 + p.fx, inShape.x);
                            const int s0 = xs * depthPerGroup;
                            const int s1 = xe * depthPerGroup; // one past
                            for (int blk = s0 / lanes;
                                 blk <= (s1 - 1) / lanes; ++blk) {
                                chargeCycle();
                                for (int lane = 0; lane < lanes; ++lane) {
                                    const int pos = blk * lanes + lane;
                                    if (pos < s0 || pos >= s1) {
                                        // Neighbouring-column data:
                                        // broadcast but unused.
                                        chargeLane(Fixed16{});
                                        continue;
                                    }
                                    const int ix = pos / depthPerGroup;
                                    const int z = pos % depthPerGroup;
                                    const Fixed16 n = in.at(ix, iy, z);
                                    chargeLane(n);
                                    if (n.isZero())
                                        continue;
                                    for (int f = 0; f < fCount; ++f) {
                                        const Fixed16 s = weights.at(
                                            fStart + f, ix - x0, ky, z);
                                        acc[fStart + f] += mulRaw(n, s);
                                    }
                                }
                            }
                            continue;
                        }
                        for (int kx = 0; kx < p.fx; ++kx) {
                            const int ix = x0 + kx;
                            if (ix < 0 || ix >= inShape.x)
                                continue;

                            const Fixed16 *col = in.column(ix, iy) + zBase;
                            const int blocks =
                                (depthPerGroup + lanes - 1) / lanes;
                            for (int blk = 0; blk < blocks; ++blk) {
                                // --- one cycle: broadcast 16 neurons ---
                                chargeCycle();
                                for (int lane = 0; lane < lanes; ++lane) {
                                    const int z = blk * lanes + lane;
                                    const Fixed16 n = z < depthPerGroup
                                        ? col[z] : Fixed16{};
                                    chargeLane(n);
                                    if (n.isZero())
                                        continue;
                                    for (int f = 0; f < fCount; ++f) {
                                        const Fixed16 s = weights.at(
                                            fStart + f, kx, ky, z);
                                        acc[fStart + f] += mulRaw(n, s);
                                    }
                                }
                            }
                        }
                    }
                }
            }

            // Drain NBout: requantise, bias, ReLU, write to NM.
            for (int f = 0; f < p.filters; ++f) {
                Fixed16 v = Fixed16::productToFixed(acc[f]) + bias[f];
                if (p.relu)
                    v = v.relu();
                result.output.at(ox, oy, f) = v;
            }
            en.nmWrites += (p.filters + lanes - 1) / lanes;
        }
    }

    result.timing.cycles = cycles;
    // Lock-step broadcast: every lane is occupied every cycle (the
    // zero/non-zero split lives in the activity categories).
    result.timing.micro.laneBusyCycles =
        cycles * static_cast<std::uint64_t>(lanes);
    return result;
}

} // namespace cnv::ref
