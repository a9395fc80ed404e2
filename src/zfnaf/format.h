/**
 * @file
 * The Zero-Free Neuron Array format (ZFNAf), Section IV-B1.
 *
 * ZFNAf partitions a neuron array into *bricks*: aligned groups of
 * brickSize (16 in the paper) neurons that are contiguous along the
 * feature dimension i and share their (x, y) coordinates. Within a
 * brick only the non-zero neurons are stored, each as a
 * (value, offset) pair where the offset is the neuron's original
 * position inside the brick; remaining slots are zero-padded.
 *
 * Bricks keep their conventional-array alignment — brick b occupies
 * slot b — so the format sacrifices memory-footprint savings (unlike
 * CSR) in exchange for direct indexing at brick granularity, which
 * is what lets the dispatcher hand independent work to each neuron
 * lane with wide, aligned NM accesses.
 *
 * With 16-neuron bricks the offset field is 4 bits: a 25% capacity
 * overhead on the 16-bit neurons.
 *
 * Cnvlutin2 (arXiv 1705.00125) shrinks the layout to an
 * *offset-only* variant: every brick keeps its brickSize 4-bit
 * offset fields (so brick slots stay directly indexable), but the
 * 16-bit value field is stored only for the non-zero neurons —
 * zero-padding slots carry just the offset. storageBits() accounts
 * the paper's layout; offsetOnlyStorageBits() accounts the
 * Cnvlutin2 one. See docs/zfnaf.md for the worked comparison.
 */

#ifndef CNV_ZFNAF_FORMAT_H
#define CNV_ZFNAF_FORMAT_H

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/activity_mask.h"
#include "tensor/neuron_tensor.h"

namespace cnv::zfnaf {

/** Brick size used by the paper's CNV configuration. */
inline constexpr int kPaperBrickSize = 16;

/** Bits per neuron value (16-bit fixed-point, Section IV-A). */
inline constexpr int kNeuronBits = 16;

/** One (value, offset) pair of the ZFNAf. */
struct EncodedNeuron
{
    tensor::Fixed16 value{};
    std::uint8_t offset = 0;

    bool operator==(const EncodedNeuron &) const = default;
};

/**
 * A neuron array encoded in ZFNAf.
 *
 * The array keeps one fixed-capacity slot per brick; slot b holds
 * the encoded form of conventional-array brick b. Bricks along the
 * feature dimension are indexed 0..bricksPerColumn()-1 for each
 * (x, y) position.
 */
class EncodedArray
{
  public:
    EncodedArray() = default;

    /**
     * Allocate an encoded array for a conventional shape.
     *
     * @param shape Conventional (pre-encoding) array shape.
     * @param brickSize Neurons per brick; must be in [1, 256].
     */
    EncodedArray(tensor::Shape3 shape, int brickSize);

    const tensor::Shape3 &shape() const { return shape_; }
    int brickSize() const { return brickSize_; }

    /** Structural equality (shape, brick size, slots, counts). */
    bool operator==(const EncodedArray &) const = default;

    /** Bits needed for an offset field (4 for 16-neuron bricks). */
    int offsetBits() const;

    /** Bricks along the feature dimension per (x, y) column. */
    int bricksPerColumn() const { return bricksPerColumn_; }

    /** Total number of brick slots. */
    std::size_t brickCount() const;

    /** Number of non-zero (stored) neurons in brick (x, y, b). */
    int nonZeroCount(int x, int y, int b) const;

    /** Encoded neurons of brick (x, y, b): exactly nonZeroCount entries. */
    std::span<const EncodedNeuron> brick(int x, int y, int b) const;

    /**
     * Write one brick. Entries must have strictly increasing offsets
     * within [0, brickSize) and non-zero values.
     */
    void setBrick(int x, int y, int b,
                  std::span<const EncodedNeuron> entries);

    /** Total non-zero neurons across the array. */
    std::size_t totalNonZero() const;

    /**
     * Footprint in bits of the ZFNAf storage, including zero padding
     * and offset fields (used by the area model).
     */
    std::size_t storageBits() const;

    /**
     * Footprint in bits of the same logical content under the
     * Cnvlutin2 offset-only layout: every slot keeps its offset
     * field (an unused slot repeats the previous offset, which the
     * strictly-increasing invariant makes a self-delimiting end
     * marker), but only the non-zero neurons store a value. Unlike
     * storageBits() this is content-dependent — it shrinks with the
     * array's sparsity and is at worst equal to storageBits().
     */
    std::size_t offsetOnlyStorageBits() const;

    /** Validate all format invariants; panics on violation. */
    void checkInvariants() const;

  private:
    std::size_t brickIndex(int x, int y, int b) const;

    tensor::Shape3 shape_;
    int brickSize_ = kPaperBrickSize;
    int bricksPerColumn_ = 0;
    /** Packed slots: brickSize entries per brick, zero padded. */
    std::vector<EncodedNeuron> slots_;
    /** Non-zero count per brick. */
    std::vector<std::uint8_t> counts_;
};

/**
 * Encode a conventional neuron array into ZFNAf.
 *
 * Neurons with |value| < pruneThreshold (in raw fixed-point units)
 * are treated as zero — this is the dynamic-pruning hook of Section
 * V-E; a threshold of 0 removes exactly the zero-valued neurons.
 */
EncodedArray encode(const tensor::NeuronTensor &in,
                    int brickSize = kPaperBrickSize,
                    std::int32_t pruneThreshold = 0);

/**
 * Scalar reference encoder, bit-identical to encode() by contract —
 * the scalar-vs-SIMD equivalence tests and the before/after bench
 * columns run both.
 */
EncodedArray encodeScalar(const tensor::NeuronTensor &in,
                          int brickSize = kPaperBrickSize,
                          std::int32_t pruneThreshold = 0);

/** Decode back to a conventional array (pruned neurons become zero). */
tensor::NeuronTensor decode(const EncodedArray &in);

/**
 * Per-brick non-zero counts for a conventional array without
 * building the full encoding — the timing models consume this.
 * Result dims: (x, y, bricksPerColumn).
 */
tensor::Tensor3<std::uint8_t>
nonZeroCountMap(const tensor::NeuronTensor &in,
                int brickSize = kPaperBrickSize,
                std::int32_t pruneThreshold = 0);

/**
 * Per-brick non-zero counts from an activity mask: equal to
 * nonZeroCountMap(t, brickSize) for any tensor t whose non-zeros the
 * mask marks. Synthetic trace counts come from here, pruned ones
 * from nn::prunedMask(), without the tensor's values being drawn.
 */
tensor::Tensor3<std::uint8_t>
nonZeroCountMap(const tensor::ActivityMask &mask,
                int brickSize = kPaperBrickSize);

/** Scalar reference counter (equivalence tests, bench baseline). */
tensor::Tensor3<std::uint8_t>
nonZeroCountMapScalar(const tensor::NeuronTensor &in,
                      int brickSize = kPaperBrickSize,
                      std::int32_t pruneThreshold = 0);

} // namespace cnv::zfnaf

#endif // CNV_ZFNAF_FORMAT_H
