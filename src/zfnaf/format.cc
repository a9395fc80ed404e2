#include "zfnaf/format.h"

#include <algorithm>
#include <bit>

#include "core/simd.h"
#include "sim/logging.h"

namespace cnv::zfnaf {

namespace {

namespace simd = core::simd;

/** Upper bound on brickSize, so brick scratch can live on the stack. */
constexpr int kMaxBrickSize = 256;

int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

/**
 * Number of values in p[0..len) passing the keep predicate
 * "non-zero and |raw| >= threshold" (threshold pre-clamped to the
 * unsigned-16 domain; zero-filled tail lanes never count).
 */
int
countKept(const tensor::Fixed16 *p, int len, std::uint16_t t)
{
    int nz = 0;
    int c = 0;
    for (; c + simd::kLanes <= len; c += simd::kLanes)
        nz += simd::geCount(simd::loadFull(p + c), t);
    if (c < len)
        nz += simd::geCount(simd::loadPartial(p + c, len - c), t);
    return nz;
}

} // namespace

EncodedArray::EncodedArray(tensor::Shape3 shape, int brickSize)
    : shape_(shape), brickSize_(brickSize)
{
    if (brickSize < 1 || brickSize > 256)
        CNV_FATAL("brick size {} outside supported range [1, 256]",
                  brickSize);
    bricksPerColumn_ = ceilDiv(shape.z, brickSize);
    const std::size_t bricks = brickCount();
    slots_.resize(bricks * static_cast<std::size_t>(brickSize_));
    counts_.assign(bricks, 0);
}

int
EncodedArray::offsetBits() const
{
    int bits = 0;
    while ((1 << bits) < brickSize_)
        ++bits;
    return bits == 0 ? 1 : bits;
}

std::size_t
EncodedArray::brickCount() const
{
    return static_cast<std::size_t>(shape_.x) *
           static_cast<std::size_t>(shape_.y) *
           static_cast<std::size_t>(bricksPerColumn_);
}

std::size_t
EncodedArray::brickIndex(int x, int y, int b) const
{
    CNV_ASSERT(x >= 0 && x < shape_.x && y >= 0 && y < shape_.y &&
               b >= 0 && b < bricksPerColumn_,
               "brick index ({},{},{}) out of range", x, y, b);
    return (static_cast<std::size_t>(y) * shape_.x + x) * bricksPerColumn_ +
           b;
}

int
EncodedArray::nonZeroCount(int x, int y, int b) const
{
    return counts_[brickIndex(x, y, b)];
}

std::span<const EncodedNeuron>
EncodedArray::brick(int x, int y, int b) const
{
    const std::size_t idx = brickIndex(x, y, b);
    return {slots_.data() + idx * brickSize_,
            static_cast<std::size_t>(counts_[idx])};
}

void
EncodedArray::setBrick(int x, int y, int b,
                       std::span<const EncodedNeuron> entries)
{
    const std::size_t idx = brickIndex(x, y, b);
    if (entries.size() > static_cast<std::size_t>(brickSize_))
        CNV_FATAL("brick overflow: {} entries into {}-neuron brick",
                  entries.size(), brickSize_);

    int lastOffset = -1;
    for (const EncodedNeuron &e : entries) {
        if (e.value.isZero())
            CNV_FATAL("zero value stored in ZFNAf brick");
        if (e.offset >= brickSize_)
            CNV_FATAL("offset {} outside {}-neuron brick", int(e.offset),
                      brickSize_);
        if (static_cast<int>(e.offset) <= lastOffset)
            CNV_FATAL("non-increasing offsets in ZFNAf brick");
        lastOffset = e.offset;
    }

    EncodedNeuron *slot = slots_.data() + idx * brickSize_;
    std::size_t i = 0;
    for (; i < entries.size(); ++i)
        slot[i] = entries[i];
    for (; i < static_cast<std::size_t>(brickSize_); ++i)
        slot[i] = EncodedNeuron{}; // zero padding
    counts_[idx] = static_cast<std::uint8_t>(entries.size());
}

std::size_t
EncodedArray::totalNonZero() const
{
    std::size_t total = 0;
    for (std::uint8_t c : counts_)
        total += c;
    return total;
}

std::size_t
EncodedArray::storageBits() const
{
    // Every slot is materialised (alignment is preserved); each
    // encoded neuron carries a 16-bit value plus an offset field.
    const std::size_t perNeuron =
        static_cast<std::size_t>(kNeuronBits) +
        static_cast<std::size_t>(offsetBits());
    return slots_.size() * perNeuron;
}

std::size_t
EncodedArray::offsetOnlyStorageBits() const
{
    // Offset fields stay fully materialised (one per slot, keeping
    // bricks directly indexable); values are stored only for the
    // non-zero neurons.
    return slots_.size() * static_cast<std::size_t>(offsetBits()) +
           totalNonZero() * static_cast<std::size_t>(kNeuronBits);
}

void
EncodedArray::checkInvariants() const
{
    for (int y = 0; y < shape_.y; ++y) {
        for (int x = 0; x < shape_.x; ++x) {
            for (int b = 0; b < bricksPerColumn_; ++b) {
                const auto entries = brick(x, y, b);
                int last = -1;
                for (const EncodedNeuron &e : entries) {
                    CNV_ASSERT(!e.value.isZero(),
                               "zero value in brick ({},{},{})", x, y, b);
                    CNV_ASSERT(e.offset < brickSize_,
                               "offset out of brick ({},{},{})", x, y, b);
                    CNV_ASSERT(static_cast<int>(e.offset) > last,
                               "offsets not increasing in brick ({},{},{})",
                               x, y, b);
                    // Offsets in the tail brick must map to real
                    // neurons of the conventional array.
                    CNV_ASSERT(b * brickSize_ + e.offset < shape_.z,
                               "offset past array depth in brick ({},{},{})",
                               x, y, b);
                    last = e.offset;
                }
            }
        }
    }
}

EncodedArray
encode(const tensor::NeuronTensor &in, int brickSize,
       std::int32_t pruneThreshold)
{
    EncodedArray out(in.shape(), brickSize);
    const std::uint16_t t = simd::clampThreshold(pruneThreshold);
    EncodedNeuron scratch[kMaxBrickSize];

    for (int y = 0; y < in.shape().y; ++y) {
        for (int x = 0; x < in.shape().x; ++x) {
            const tensor::Fixed16 *col = in.column(x, y);
            for (int b = 0; b < out.bricksPerColumn(); ++b) {
                const int z0 = b * brickSize;
                const int len =
                    std::min(z0 + brickSize, in.shape().z) - z0;
                int n = 0;
                for (int c = 0; c < len; c += simd::kLanes) {
                    const int chunk = std::min(simd::kLanes, len - c);
                    const simd::VecI16 v = chunk == simd::kLanes
                        ? simd::loadFull(col + z0 + c)
                        : simd::loadPartial(col + z0 + c, chunk);
                    std::uint32_t mask = simd::geMask(v, t);
                    while (mask != 0) {
                        const int i = std::countr_zero(mask);
                        mask &= mask - 1;
                        scratch[n++] = {
                            col[z0 + c + i],
                            static_cast<std::uint8_t>(c + i)};
                    }
                }
                out.setBrick(x, y, b,
                             {scratch, static_cast<std::size_t>(n)});
            }
        }
    }
    return out;
}

EncodedArray
encodeScalar(const tensor::NeuronTensor &in, int brickSize,
             std::int32_t pruneThreshold)
{
    EncodedArray out(in.shape(), brickSize);
    std::vector<EncodedNeuron> scratch;
    scratch.reserve(brickSize);

    for (int y = 0; y < in.shape().y; ++y) {
        for (int x = 0; x < in.shape().x; ++x) {
            for (int b = 0; b < out.bricksPerColumn(); ++b) {
                scratch.clear();
                const int z0 = b * brickSize;
                const int zEnd = std::min(z0 + brickSize, in.shape().z);
                for (int z = z0; z < zEnd; ++z) {
                    const tensor::Fixed16 v = in.at(x, y, z);
                    if (v.isZero() || v.rawAbs() < pruneThreshold)
                        continue;
                    scratch.push_back(
                        {v, static_cast<std::uint8_t>(z - z0)});
                }
                out.setBrick(x, y, b, scratch);
            }
        }
    }
    return out;
}

tensor::NeuronTensor
decode(const EncodedArray &in)
{
    tensor::NeuronTensor out(in.shape());
    out.fill(tensor::Fixed16{});
    for (int y = 0; y < in.shape().y; ++y) {
        for (int x = 0; x < in.shape().x; ++x) {
            for (int b = 0; b < in.bricksPerColumn(); ++b) {
                for (const EncodedNeuron &e : in.brick(x, y, b)) {
                    const int z = b * in.brickSize() + e.offset;
                    out.at(x, y, z) = e.value;
                }
            }
        }
    }
    return out;
}

tensor::Tensor3<std::uint8_t>
nonZeroCountMap(const tensor::NeuronTensor &in, int brickSize,
                std::int32_t pruneThreshold)
{
    if (brickSize < 1 || brickSize > 255)
        CNV_FATAL("brick size {} outside supported range for count map",
                  brickSize);
    const std::uint16_t t = simd::clampThreshold(pruneThreshold);
    const int bricks = (in.shape().z + brickSize - 1) / brickSize;
    tensor::Tensor3<std::uint8_t> counts(in.shape().x, in.shape().y, bricks);
    for (int y = 0; y < in.shape().y; ++y) {
        for (int x = 0; x < in.shape().x; ++x) {
            const tensor::Fixed16 *col = in.column(x, y);
            for (int b = 0; b < bricks; ++b) {
                const int z0 = b * brickSize;
                const int len =
                    std::min(z0 + brickSize, in.shape().z) - z0;
                counts.at(x, y, b) = static_cast<std::uint8_t>(
                    countKept(col + z0, len, t));
            }
        }
    }
    return counts;
}

tensor::Tensor3<std::uint8_t>
nonZeroCountMap(const tensor::ActivityMask &mask, int brickSize)
{
    if (brickSize < 1 || brickSize > 255)
        CNV_FATAL("brick size {} outside supported range for count map",
                  brickSize);
    const tensor::Shape3 &shape = mask.shape();
    const int bricks = (shape.z + brickSize - 1) / brickSize;
    tensor::Tensor3<std::uint8_t> counts(shape.x, shape.y, bricks);
    std::uint8_t *out = counts.data();
    std::size_t base = 0;
    for (std::size_t column = 0;
         column < static_cast<std::size_t>(shape.x) * shape.y; ++column) {
        for (int b = 0; b < bricks; ++b) {
            const int z0 = b * brickSize;
            const int len = std::min(z0 + brickSize, shape.z) - z0;
            *out++ = static_cast<std::uint8_t>(mask.count(
                base + static_cast<std::size_t>(z0),
                static_cast<std::size_t>(len)));
        }
        base += static_cast<std::size_t>(shape.z);
    }
    return counts;
}

tensor::Tensor3<std::uint8_t>
nonZeroCountMapScalar(const tensor::NeuronTensor &in, int brickSize,
                      std::int32_t pruneThreshold)
{
    if (brickSize < 1 || brickSize > 255)
        CNV_FATAL("brick size {} outside supported range for count map",
                  brickSize);
    const int bricks = (in.shape().z + brickSize - 1) / brickSize;
    tensor::Tensor3<std::uint8_t> counts(in.shape().x, in.shape().y, bricks);
    for (int y = 0; y < in.shape().y; ++y) {
        for (int x = 0; x < in.shape().x; ++x) {
            const tensor::Fixed16 *col = in.column(x, y);
            for (int b = 0; b < bricks; ++b) {
                const int z0 = b * brickSize;
                const int zEnd = std::min(z0 + brickSize, in.shape().z);
                std::uint8_t nz = 0;
                for (int z = z0; z < zEnd; ++z) {
                    const tensor::Fixed16 v = col[z];
                    if (!v.isZero() && v.rawAbs() >= pruneThreshold)
                        ++nz;
                }
                counts.at(x, y, b) = nz;
            }
        }
    }
    return counts;
}

} // namespace cnv::zfnaf
