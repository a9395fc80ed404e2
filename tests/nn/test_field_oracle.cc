/**
 * @file
 * Bitwise differential test of nn::drawActivityField against the
 * direct oracle below: a per-column bilinear field with its two
 * divides, and four normalisation passes that find each column's
 * rate count k by std::lower_bound. Production hoists the field's x
 * and row terms and gallops k from the previous column; both must
 * give the same doubles, since a 1-ulp change in q flips almost no
 * mask bit and so escapes the mask digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "nn/trace.h"
#include "sim/rng.h"

namespace {

using namespace cnv;

/** The spatial field one column at a time. */
class OracleSpatialField
{
  public:
    OracleSpatialField(int grid, double sigma, sim::Rng &rng) : grid_(grid)
    {
        values_.resize(static_cast<std::size_t>(grid) * grid);
        for (double &v : values_)
            v = std::exp(rng.normal(0.0, sigma));
    }

    /** The field at column (x, y) of a width x height plane. */
    double
    at(int x, int y, int width, int height) const
    {
        const double u =
            width > 1 ? static_cast<double>(x) / (width - 1) : 0.5;
        const double v =
            height > 1 ? static_cast<double>(y) / (height - 1) : 0.5;
        const double gx = u * (grid_ - 1);
        const double gy = v * (grid_ - 1);
        const int x0 = std::min(static_cast<int>(gx), grid_ - 2);
        const int y0 = std::min(static_cast<int>(gy), grid_ - 2);
        const double fx = gx - x0;
        const double fy = gy - y0;
        const double a = cell(x0, y0) * (1 - fx) + cell(x0 + 1, y0) * fx;
        const double b =
            cell(x0, y0 + 1) * (1 - fx) + cell(x0 + 1, y0 + 1) * fx;
        return a * (1 - fy) + b * fy;
    }

  private:
    double cell(int x, int y) const { return values_[y * grid_ + x]; }

    int grid_;
    std::vector<double> values_;
};

/** drawActivityField with a divide pair per column and a
 *  lower_bound per column in each pass. */
nn::ActivityField
oracleField(int width, int height, int depth, const nn::SparsityModel &model,
            sim::Rng &rng)
{
    nn::ActivityField field;
    field.active = 1.0 - std::clamp(model.zeroFraction, 0.0, 1.0);
    if (field.active <= 0.0 || field.active >= 1.0)
        return field;
    field.channelRate.resize(static_cast<std::size_t>(depth));
    for (double &r : field.channelRate)
        r = std::exp(rng.normal(0.0, model.channelDispersion));
    const int grid = std::max(2, model.spatialGrid);
    const OracleSpatialField spatial(grid, model.spatialDispersion, rng);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            field.spatial.push_back(spatial.at(x, y, width, height));

    std::vector<double> sorted = field.channelRate;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> prefix(sorted.size() + 1, 0.0);
    std::partial_sum(sorted.begin(), sorted.end(), prefix.begin() + 1);
    const double elems = static_cast<double>(field.spatial.size()) * depth;
    for (int iter = 0; iter < 4; ++iter) {
        const double c = field.scale * field.active;
        double mean = 0.0;
        for (const double s : field.spatial) {
            const double sc = s * c;
            const auto k =
                std::lower_bound(sorted.begin(), sorted.end(), 1.0 / sc) -
                sorted.begin();
            mean += sc * prefix[k] + static_cast<double>(depth - k);
        }
        mean /= elems;
        if (mean <= 0.0)
            break;
        field.scale *= field.active / mean;
    }
    return field;
}

/** The bit patterns of `v`, so == tells apart what IEEE == does not. */
std::vector<std::uint64_t>
bits(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out;
    out.reserve(v.size());
    for (const double d : v)
        out.push_back(std::bit_cast<std::uint64_t>(d));
    return out;
}

/** Draw both fields from one stream state; they and the stream
 *  positions after them must agree bit for bit. */
void
expectBitEqual(int width, int height, int depth,
               const nn::SparsityModel &model, sim::Rng &rng)
{
    SCOPED_TRACE(testing::Message()
                 << width << "x" << height << "x" << depth << " zf "
                 << model.zeroFraction << " grid " << model.spatialGrid);
    sim::Rng replay = rng;
    const nn::ActivityField got =
        nn::drawActivityField(width, height, depth, model, rng);
    const nn::ActivityField want =
        oracleField(width, height, depth, model, replay);
    EXPECT_EQ(bits(got.spatial), bits(want.spatial));
    EXPECT_EQ(bits(got.channelRate), bits(want.channelRate));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.scale),
              std::bit_cast<std::uint64_t>(want.scale));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.active),
              std::bit_cast<std::uint64_t>(want.active));
    EXPECT_EQ(rng.next(), replay.next());
}

TEST(FieldOracle, RawImageInputIsBitEqual)
{
    // A network's first conv input: 224x224x3 at the raw image's
    // zero fraction and dispersions.
    nn::SparsityModel model;
    model.zeroFraction = 0.01;
    model.channelDispersion = 0.05;
    model.spatialDispersion = 0.05;
    sim::Rng rng(224);
    expectBitEqual(224, 224, 3, model, rng);
}

TEST(FieldOracle, DegeneratePlanesAndTheCoarsestGridAreBitEqual)
{
    // A plane of width or height 1 puts that axis at 0.5; grid 2 (and
    // grids below it, raised to 2) has one cell.
    sim::Rng rng(1);
    for (const int grid : {0, 2, 3, 5}) {
        nn::SparsityModel model;
        model.spatialGrid = grid;
        model.spatialDispersion = 0.8;
        for (const auto &[w, h] : {std::pair{1, 1}, std::pair{1, 17},
                                  std::pair{23, 1}, std::pair{2, 2},
                                  std::pair{31, 9}})
            expectBitEqual(w, h, 37, model, rng);
    }
}

TEST(FieldOracle, EveryDepthUpTo1024IsBitEqual)
{
    sim::Rng rng(1024);
    nn::SparsityModel model;
    for (int depth = 1; depth <= 1024; ++depth) {
        model.zeroFraction = depth % 3 == 0 ? 0.05 : 0.5;
        model.channelDispersion = depth % 3 == 0 ? 1.5 : 0.35;
        expectBitEqual(1 + depth % 7, 1 + depth % 5, depth, model, rng);
    }
}

TEST(FieldOracle, RandomModelsAreBitEqual)
{
    // The 40 models of Traces.NormalisationMatchesTheDirectClampedMean;
    // every fourth clamps heavily.
    sim::Rng rng(2024);
    for (int trial = 0; trial < 40; ++trial) {
        const bool heavy = trial % 4 == 0;
        nn::SparsityModel model;
        model.zeroFraction = heavy ? 0.05 : rng.uniform(0.05, 0.95);
        model.channelDispersion = heavy ? 1.5 : rng.uniform(0.0, 1.5);
        model.spatialDispersion = rng.uniform(0.0, 1.0);
        const int width = 1 + static_cast<int>(rng.uniformInt(20));
        const int height = 1 + static_cast<int>(rng.uniformInt(20));
        const int depth = 1 + static_cast<int>(rng.uniformInt(300));
        expectBitEqual(width, height, depth, model, rng);
    }
}

TEST(FieldOracle, CountBelowReciprocalMatchesLowerBoundAtTies)
{
    // Rates at, next to and a few ulps around 1 / sc, where r * sc
    // rounds to within 2^-50 of 1 and only the divide can tell, among
    // random ones; every guess must give std::lower_bound's count.
    // Extreme sc make 1 / sc overflow, underflow or turn NaN.
    sim::Rng rng(0x71e5);
    std::vector<double> specials = {0.0,     0x1.0p-1074, 0x1.0p-1030,
                                    1e-300,  1e300,       0x1.0p1023,
                                    HUGE_VAL, std::nan("")};
    for (int trial = 0; trial < 2000; ++trial) {
        const double sc = trial < static_cast<int>(specials.size())
                              ? specials[static_cast<std::size_t>(trial)]
                              : std::exp(rng.normal(0.0, 3.0));
        const double t = 1.0 / sc;
        std::vector<double> sorted = {t, std::nextafter(t, 0.0),
                                      std::nextafter(t, HUGE_VAL), 0.0};
        for (int ulps = -4; ulps <= 4; ++ulps)
            sorted.push_back(t * (1.0 + ulps * 0x1.0p-52));
        for (int i = 0; i < 8; ++i)
            sorted.push_back(t * rng.uniform(0.5, 2.0));
        std::erase_if(sorted, [](double r) { return std::isnan(r); });
        std::sort(sorted.begin(), sorted.end());
        const auto want = static_cast<std::size_t>(
            std::lower_bound(sorted.begin(), sorted.end(), t) -
            sorted.begin());
        for (std::size_t k = 0; k <= sorted.size(); ++k)
            EXPECT_EQ(nn::countBelowReciprocal(sorted, sc, k), want)
                << "sc " << sc << " guess " << k;
    }
}

} // namespace
