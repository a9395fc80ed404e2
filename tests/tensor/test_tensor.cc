/** @file Tests for the tensor containers and helpers. */

#include <gtest/gtest.h>

#include "sim/error.h"
#include "sim/logging.h"
#include "sim/rng.h"
#include "tensor/activity_mask.h"
#include "tensor/neuron_tensor.h"

namespace {

using namespace cnv::tensor;

TEST(Tensor3, DepthFastestLayout)
{
    Tensor3<int> t(3, 2, 4);
    // (x=0, y=0, z) are the first four elements.
    EXPECT_EQ(t.index(0, 0, 0), 0u);
    EXPECT_EQ(t.index(0, 0, 3), 3u);
    EXPECT_EQ(t.index(1, 0, 0), 4u);
    EXPECT_EQ(t.index(0, 1, 0), 12u);
}

TEST(Tensor3, ColumnPointsAtDepthRun)
{
    Tensor3<int> t(2, 2, 3);
    int v = 0;
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 2; ++x)
            for (int z = 0; z < 3; ++z)
                t.at(x, y, z) = v++;
    const int *col = t.column(1, 1);
    EXPECT_EQ(col[0], t.at(1, 1, 0));
    EXPECT_EQ(col[2], t.at(1, 1, 2));
}

TEST(Tensor3, OutOfRangePanics)
{
    cnv::sim::setVerbosity(cnv::sim::Verbosity::Silent);
    Tensor3<int> t(2, 2, 2);
    EXPECT_THROW(t.at(2, 0, 0), cnv::sim::PanicError);
    EXPECT_THROW(t.at(0, -1, 0), cnv::sim::PanicError);
    cnv::sim::setVerbosity(cnv::sim::Verbosity::Info);
}

TEST(Tensor4, FilterMajorContiguity)
{
    Tensor4<int> t(2, 3, 3, 4);
    // A whole filter occupies a contiguous span.
    EXPECT_EQ(t.index(1, 0, 0, 0) - t.index(0, 0, 0, 0), 3u * 3u * 4u);
    // Depth is fastest within a filter.
    EXPECT_EQ(t.index(0, 0, 0, 1), t.index(0, 0, 0, 0) + 1);
}

TEST(NeuronTensor, ZeroFractionAndNonZeroCount)
{
    NeuronTensor t(2, 2, 4);
    t.fill(Fixed16{});
    t.at(0, 0, 0) = Fixed16::fromDouble(1.0);
    t.at(1, 1, 3) = Fixed16::fromDouble(-2.0);
    EXPECT_EQ(countNonZero(t), 2u);
    EXPECT_DOUBLE_EQ(zeroFraction(t), 14.0 / 16.0);
}

TEST(NeuronTensor, MaxAbsDifference)
{
    NeuronTensor a(1, 1, 2), b(1, 1, 2);
    a.at(0, 0, 0) = Fixed16::fromDouble(1.0);
    b.at(0, 0, 0) = Fixed16::fromDouble(1.5);
    EXPECT_DOUBLE_EQ(maxAbsDifference(a, b), 0.5);
}

TEST(Shape3, Volume)
{
    EXPECT_EQ((Shape3{3, 4, 5}).volume(), 60u);
    EXPECT_EQ((Shape3{0, 4, 5}).volume(), 0u);
}

TEST(Tensor3, EqualityComparesShapeAndData)
{
    Tensor3<int> a(2, 1, 1), b(2, 1, 1), c(1, 2, 1);
    a.at(0, 0, 0) = 1;
    b.at(0, 0, 0) = 1;
    EXPECT_EQ(a, b);
    b.at(1, 0, 0) = 9;
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(ActivityMask, BitsReadWhatTestReads)
{
    // 3 x 2 x 37 = 222 elements: runs of every length up to 64 start
    // at every offset, so many straddle a word boundary.
    ActivityMask mask({3, 2, 37});
    cnv::sim::Rng rng(4);
    for (std::size_t i = 0; i + 64 <= mask.size(); i += 1 + rng.uniformInt(40))
        mask.setBits(i, rng.next());
    for (std::size_t begin = 0; begin < mask.size(); ++begin)
        for (int n = 1; n <= 64 && begin + n <= mask.size(); ++n) {
            std::uint64_t expected = 0;
            for (int j = 0; j < n; ++j)
                expected |= std::uint64_t{mask.test(begin + j)} << j;
            ASSERT_EQ(mask.bits(begin, n), expected)
                << "begin " << begin << " n " << n;
        }
}

} // namespace
