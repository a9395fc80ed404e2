/**
 * @file
 * Bit-packed activity mask: which neurons of a 3D array are non-zero,
 * one bit per neuron, in the array's depth-fastest storage order.
 *
 * Zero-skipping timing depends only on where the zeros are, so a mask
 * carries everything a count map needs at 1/16 of the NeuronTensor's
 * memory (see nn::synthesizeActivity and nn::prunedMask).
 */

#ifndef CNV_TENSOR_ACTIVITY_MASK_H
#define CNV_TENSOR_ACTIVITY_MASK_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace cnv::tensor {

/** One bit per neuron of a Shape3 array: set iff the neuron is non-zero. */
class ActivityMask
{
  public:
    ActivityMask() = default;

    /** All-clear mask over `shape`. */
    explicit ActivityMask(Shape3 shape)
        : shape_(shape), words_((shape.volume() + 63) / 64)
    {}

    const Shape3 &shape() const { return shape_; }
    std::size_t size() const { return shape_.volume(); }

    /** Whether element i (storage order) is non-zero. */
    bool
    test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1U;
    }

    /** Set element `begin + j` for each set bit j of `bits`; those
     *  elements must lie inside the mask. */
    void
    setBits(std::size_t begin, std::uint64_t bits)
    {
        const std::size_t bit = begin & 63;
        words_[begin >> 6] |= bits << bit;
        if (bit != 0 && (bits >> (64 - bit)) != 0)
            words_[(begin >> 6) + 1] |= bits >> (64 - bit);
    }

    /** Elements [begin, begin + n), n in [1, 64], as the low n bits
     *  of a word (element `begin` at bit 0); they must lie inside
     *  the mask. */
    std::uint64_t
    bits(std::size_t begin, int n) const
    {
        const std::size_t bit = begin & 63;
        std::uint64_t w = words_[begin >> 6] >> bit;
        if (bit + static_cast<std::size_t>(n) > 64)
            w |= words_[(begin >> 6) + 1] << (64 - bit);
        return n < 64 ? w & ((std::uint64_t{1} << n) - 1) : w;
    }

    /** Number of set bits among elements [begin, begin + n). */
    std::size_t
    count(std::size_t begin, std::size_t n) const
    {
        std::size_t total = 0;
        std::size_t i = begin;
        const std::size_t end = begin + n;
        while (i < end) {
            const std::size_t bit = i & 63;
            const std::size_t take =
                end - i < 64 - bit ? end - i : 64 - bit;
            std::uint64_t w = words_[i >> 6] >> bit;
            if (take < 64)
                w &= (std::uint64_t{1} << take) - 1;
            total += static_cast<std::size_t>(std::popcount(w));
            i += take;
        }
        return total;
    }

    /** Number of non-zero elements. */
    std::size_t
    count() const
    {
        std::size_t total = 0;
        for (const std::uint64_t w : words_)
            total += static_cast<std::size_t>(std::popcount(w));
        return total;
    }

    bool operator==(const ActivityMask &) const = default;

  private:
    Shape3 shape_;
    std::vector<std::uint64_t> words_;
};

} // namespace cnv::tensor

#endif // CNV_TENSOR_ACTIVITY_MASK_H
