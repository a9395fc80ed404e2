/** @file Scalar-vs-SIMD equivalence tests for ZFNAf encode/count. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "sim/rng.h"
#include "tensor/tensor.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using tensor::Fixed16;
using tensor::NeuronTensor;
using zfnaf::EncodedArray;

NeuronTensor
randomTensor(int x, int y, int z, std::uint64_t seed,
             double zeroFrac = 0.45)
{
    NeuronTensor t(x, y, z);
    sim::Rng rng(seed);
    for (Fixed16 &v : t) {
        if (rng.bernoulli(zeroFrac)) {
            v = Fixed16{};
        } else {
            v = Fixed16::fromRaw(static_cast<std::int16_t>(rng.uniformInt(
                std::int64_t{std::numeric_limits<std::int16_t>::min()},
                std::int64_t{
                    std::numeric_limits<std::int16_t>::max()})));
        }
    }
    return t;
}

void
expectCountsEqual(const tensor::Tensor3<std::uint8_t> &a,
                  const tensor::Tensor3<std::uint8_t> &b,
                  const char *what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(int(a.data()[i]), int(b.data()[i]))
            << what << " diverges at flat index " << i;
}

TEST(ZfnafEquivalence, EncodeMatchesScalarAcrossBrickSizesAndTails)
{
    // Depths with tail bricks shorter than any vector width, brick
    // sizes on both sides of it, and prune thresholds including the
    // degenerate and saturating ones.
    std::uint64_t seed = 41;
    for (int z : {1, 3, 15, 16, 17, 50, 260}) {
        for (int brickSize : {1, 3, 8, 16, 64, 256}) {
            for (std::int32_t threshold : {0, 1, 300, 32768, 70000}) {
                const NeuronTensor t = randomTensor(4, 3, z, seed++);
                const EncodedArray vec =
                    zfnaf::encode(t, brickSize, threshold);
                const EncodedArray ref =
                    zfnaf::encodeScalar(t, brickSize, threshold);
                ASSERT_TRUE(vec == ref)
                    << "z=" << z << " brick=" << brickSize
                    << " threshold=" << threshold;
                vec.checkInvariants();
            }
        }
    }
}

TEST(ZfnafEquivalence, EncodeHandlesInt16MinValues)
{
    NeuronTensor t(2, 2, 20);
    for (Fixed16 &v : t)
        v = Fixed16::fromRaw(std::numeric_limits<std::int16_t>::min());
    for (std::int32_t threshold : {0, 32767, 32768, 32769}) {
        ASSERT_TRUE(zfnaf::encode(t, 16, threshold) ==
                    zfnaf::encodeScalar(t, 16, threshold))
            << "threshold=" << threshold;
    }
}

TEST(ZfnafEquivalence, CountMapMatchesScalar)
{
    std::uint64_t seed = 83;
    for (int z : {1, 5, 16, 31, 130}) {
        for (int brickSize : {1, 7, 16, 255}) {
            for (std::int32_t threshold : {0, 1, 1000, 40000}) {
                const NeuronTensor t = randomTensor(5, 4, z, seed++);
                expectCountsEqual(
                    zfnaf::nonZeroCountMap(t, brickSize, threshold),
                    zfnaf::nonZeroCountMapScalar(t, brickSize,
                                                 threshold),
                    "nonZeroCountMap");
            }
        }
    }
}

TEST(ZfnafEquivalence, TensorCountsMatchBruteForce)
{
    // countNonZero/zeroFraction ride the same predicate kernel.
    for (int n : {1, 7, 16, 33, 1000}) {
        const NeuronTensor t = randomTensor(1, n, 1, 60 + n);
        std::size_t expect = 0;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (!t.data()[i].isZero())
                ++expect;
        }
        EXPECT_EQ(tensor::countNonZero(t), expect) << "n=" << n;
        EXPECT_DOUBLE_EQ(
            tensor::zeroFraction(t),
            static_cast<double>(t.size() - expect) /
                static_cast<double>(t.size()))
            << "n=" << n;
    }
}

} // namespace
