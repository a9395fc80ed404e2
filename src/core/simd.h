/**
 * @file
 * Freestanding portable SIMD layer for the 16-bit fixed-point hot
 * paths (conv forward, ZFNAf encode, non-zero brick counting), for
 * the lane sums of the skip-free conv timing walk, and for trace
 * synthesis's counter-based Bernoulli draws.
 *
 * Exactly one backend is selected at compile time:
 *
 *   - AVX2 (16 lanes)            x86-64 with `-mavx2`
 *   - SSE4.2 (8 lanes)           x86-64 with `-msse4.2`
 *   - NEON (8 lanes)             AArch64 (baseline)
 *   - scalar (8 lanes)           everything else, or `CNV_SIMD=0`
 *
 * The `CNV_SIMD` CMake option drives the macro of the same name:
 * `-DCNV_SIMD=0` forces the scalar backend regardless of the target
 * ISA, which is how the scalar-fallback CI job keeps both dispatch
 * paths green. Every backend computes *exact* integer results — the
 * products are formed in full precision and summed into 64-bit
 * accumulators (`MacBlock` sums into int32 lanes that its caller
 * flushes to 64 bits before they can wrap), and integer addition is
 * associative — so all four
 * backends are bit-identical by construction; the equivalence tests
 * in tests/nn and tests/zfnaf pin this. The one floating-point
 * kernel, bernoulliBlock, is exact too: see its comment.
 *
 * Layering: core is the bottom module, so this header includes
 * nothing from src/ outside core (tools/check_layering.py). It is also the
 * only file in the tree allowed to touch raw intrinsics: the cnvlint
 * `raw-simd` rule bans `<immintrin.h>` / `<arm_neon.h>` and the
 * `__m128`/`__m256`/NEON vector types everywhere else.
 *
 * Element loads go through `std::memcpy`, never pointer casts, so
 * any trivially-copyable 2-byte type (`tensor::Fixed16`,
 * `std::int16_t`) can be consumed without `reinterpret_cast` or
 * alignment assumptions.
 */

#ifndef CNV_CORE_SIMD_H
#define CNV_CORE_SIMD_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "core/splitmix.h"

#if !defined(CNV_SIMD) || CNV_SIMD
#if defined(__AVX2__)
#define CNV_SIMD_BACKEND_AVX2 1
#elif defined(__SSE4_2__)
#define CNV_SIMD_BACKEND_SSE42 1
#elif defined(__ARM_NEON) && defined(__aarch64__)
#define CNV_SIMD_BACKEND_NEON 1
#endif
#endif

#if defined(CNV_SIMD_BACKEND_AVX2) || defined(CNV_SIMD_BACKEND_SSE42)
#include <immintrin.h>
#elif defined(CNV_SIMD_BACKEND_NEON)
#include <arm_neon.h>
#endif

namespace cnv::core::simd {

namespace detail {

/** Static requirements on the element types the loads accept. */
template <typename T>
inline constexpr bool kIsRawI16 =
    sizeof(T) == sizeof(std::int16_t) &&
    std::is_trivially_copyable_v<T>;

/**
 * Compress the even-indexed bits of a byte-level movemask (two bits
 * per 16-bit lane) down to one bit per lane. Used by the x86
 * backends to normalise `movemask_epi8` output.
 */
constexpr std::uint32_t
evenBits(std::uint32_t m)
{
    m &= 0x55555555u;
    m = (m | (m >> 1)) & 0x33333333u;
    m = (m | (m >> 2)) & 0x0F0F0F0Fu;
    m = (m | (m >> 4)) & 0x00FF00FFu;
    m = (m | (m >> 8)) & 0x0000FFFFu;
    return m;
}

} // namespace detail

/**
 * Lanes of one MacBlock: 16-bit weights consumed per broadcast
 * multiply-accumulate, the same on every backend.
 */
inline constexpr int kMacLanes = 16;

/**
 * Clamp a raw prune threshold to the unsigned-16 domain the lane
 * predicate works in. The predicate "non-zero and |raw| >= t" is
 * exactly "uabs(raw) >= clampThreshold(t)": any threshold <= 1
 * degenerates to the non-zero test, and |raw| never exceeds 32768,
 * so thresholds past 0xFFFF select nothing — matching the scalar
 * semantics of zfnaf::encode / nonZeroCountMap for every int32
 * threshold.
 */
constexpr std::uint16_t
clampThreshold(std::int64_t rawThreshold)
{
    if (rawThreshold < 1)
        return 1;
    if (rawThreshold > 0xFFFF)
        return 0xFFFF;
    return static_cast<std::uint16_t>(rawThreshold);
}

#if defined(CNV_SIMD_BACKEND_AVX2)

/** Identifies the selected backend (for logs and bench labels). */
inline constexpr bool kEnabled = true;
/** 16-bit lanes per vector register. */
inline constexpr int kLanes = 16;

/** Human-readable name of the selected backend. */
constexpr const char *
instructionSet()
{
    return "avx2";
}

/** One register of kLanes packed 16-bit values. */
struct VecI16
{
    __m256i v;
};

/** Load kLanes consecutive 2-byte elements (unaligned). */
template <typename T>
inline VecI16
loadFull(const T *p)
{
    static_assert(detail::kIsRawI16<T>);
    VecI16 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
}

/** Load n < kLanes elements, zero-filling the remaining lanes. */
template <typename T>
inline VecI16
loadPartial(const T *p, int n)
{
    static_assert(detail::kIsRawI16<T>);
    std::int16_t buf[kLanes] = {};
    std::memcpy(buf, p, static_cast<std::size_t>(n) * sizeof(buf[0]));
    return loadFull(buf);
}

/**
 * Exact 64-bit accumulator of 16x16-bit products. Every product is
 * formed in full 32-bit precision (mullo/mulhi interleave) and
 * widened to 64 bits before accumulation, so no input combination
 * can wrap — the result equals the scalar sum for all inputs.
 */
class DotAccum
{
  public:
    DotAccum() : acc_(_mm256_setzero_si256()) {}

    /** acc += sum over lanes of a[i] * b[i], exactly. */
    void
    mulAcc(VecI16 a, VecI16 b)
    {
        const __m256i lo = _mm256_mullo_epi16(a.v, b.v);
        const __m256i hi = _mm256_mulhi_epi16(a.v, b.v);
        const __m256i p0 = _mm256_unpacklo_epi16(lo, hi);
        const __m256i p1 = _mm256_unpackhi_epi16(lo, hi);
        acc_ = _mm256_add_epi64(
            acc_, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p0)));
        acc_ = _mm256_add_epi64(
            acc_, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p0, 1)));
        acc_ = _mm256_add_epi64(
            acc_, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p1)));
        acc_ = _mm256_add_epi64(
            acc_, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p1, 1)));
    }

    /** Horizontal sum of the four 64-bit partial accumulators. */
    std::int64_t
    total() const
    {
        std::int64_t parts[4];
        std::memcpy(parts, &acc_, sizeof(parts));
        return parts[0] + parts[1] + parts[2] + parts[3];
    }

  private:
    __m256i acc_;
};

/**
 * kMacLanes int32 lanes, each accumulating one 16-bit value times
 * its own 16-bit weight: the input-stationary conv step. Every
 * product is formed exactly (mullo/mulhi interleave, |p| <= 2^30);
 * the caller flushes before a lane sum can leave int32.
 */
class MacBlock
{
  public:
    MacBlock() : lo_(_mm256_setzero_si256()), hi_(_mm256_setzero_si256()) {}

    /** lane i += n * w[i] for i < kMacLanes. */
    template <typename T>
    void
    mulAcc(std::int16_t n, const T *w)
    {
        static_assert(detail::kIsRawI16<T>);
        __m256i wv;
        std::memcpy(&wv, w, sizeof(wv));
        const __m256i nv = _mm256_set1_epi16(n);
        const __m256i plo = _mm256_mullo_epi16(wv, nv);
        const __m256i phi = _mm256_mulhi_epi16(wv, nv);
        lo_ = _mm256_add_epi32(lo_, _mm256_unpacklo_epi16(plo, phi));
        hi_ = _mm256_add_epi32(hi_, _mm256_unpackhi_epi16(plo, phi));
    }

    /** out[i] += lane i for i < kMacLanes, then zero the lanes. */
    void
    flush(std::int64_t *out)
    {
        // The unpacks interleave within 128-bit halves: lo_ holds
        // weights 0-3 and 8-11, hi_ holds 4-7 and 12-15.
        std::int32_t lo[8];
        std::int32_t hi[8];
        std::memcpy(lo, &lo_, sizeof(lo));
        std::memcpy(hi, &hi_, sizeof(hi));
        for (int i = 0; i < 4; ++i) {
            out[i] += lo[i];
            out[i + 4] += hi[i];
            out[i + 8] += lo[i + 4];
            out[i + 12] += hi[i + 4];
        }
        lo_ = _mm256_setzero_si256();
        hi_ = _mm256_setzero_si256();
    }

  private:
    __m256i lo_;
    __m256i hi_;
};

namespace detail {

/** Per-lane predicate mask: uabs(lane) >= t, as a cmp vector. */
inline __m256i
geVector(VecI16 v, std::uint16_t t)
{
    const __m256i uabs = _mm256_abs_epi16(v.v);
    const __m256i vt =
        _mm256_set1_epi16(static_cast<std::int16_t>(t));
    return _mm256_cmpeq_epi16(_mm256_max_epu16(uabs, vt), uabs);
}

} // namespace detail

/** Number of lanes with unsigned |value| >= t (t must be >= 1). */
inline int
geCount(VecI16 v, std::uint16_t t)
{
    const auto m = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(detail::geVector(v, t)));
    return std::popcount(m) / 2;
}

/** Bit i set iff lane i has unsigned |value| >= t (t must be >= 1). */
inline std::uint32_t
geMask(VecI16 v, std::uint16_t t)
{
    const auto m = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(detail::geVector(v, t)));
    return detail::evenBits(m);
}

#elif defined(CNV_SIMD_BACKEND_SSE42)

/** Identifies the selected backend (for logs and bench labels). */
inline constexpr bool kEnabled = true;
/** 16-bit lanes per vector register. */
inline constexpr int kLanes = 8;

/** Human-readable name of the selected backend. */
constexpr const char *
instructionSet()
{
    return "sse4.2";
}

/** One register of kLanes packed 16-bit values. */
struct VecI16
{
    __m128i v;
};

/** Load kLanes consecutive 2-byte elements (unaligned). */
template <typename T>
inline VecI16
loadFull(const T *p)
{
    static_assert(detail::kIsRawI16<T>);
    VecI16 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
}

/** Load n < kLanes elements, zero-filling the remaining lanes. */
template <typename T>
inline VecI16
loadPartial(const T *p, int n)
{
    static_assert(detail::kIsRawI16<T>);
    std::int16_t buf[kLanes] = {};
    std::memcpy(buf, p, static_cast<std::size_t>(n) * sizeof(buf[0]));
    return loadFull(buf);
}

/**
 * Exact 64-bit accumulator of 8x16-bit products (SSE4.2 variant of
 * the AVX2 DotAccum; same exactness argument).
 */
class DotAccum
{
  public:
    DotAccum() : acc_(_mm_setzero_si128()) {}

    /** acc += sum over lanes of a[i] * b[i], exactly. */
    void
    mulAcc(VecI16 a, VecI16 b)
    {
        const __m128i lo = _mm_mullo_epi16(a.v, b.v);
        const __m128i hi = _mm_mulhi_epi16(a.v, b.v);
        const __m128i p0 = _mm_unpacklo_epi16(lo, hi);
        const __m128i p1 = _mm_unpackhi_epi16(lo, hi);
        acc_ = _mm_add_epi64(acc_, _mm_cvtepi32_epi64(p0));
        acc_ = _mm_add_epi64(acc_,
                             _mm_cvtepi32_epi64(_mm_srli_si128(p0, 8)));
        acc_ = _mm_add_epi64(acc_, _mm_cvtepi32_epi64(p1));
        acc_ = _mm_add_epi64(acc_,
                             _mm_cvtepi32_epi64(_mm_srli_si128(p1, 8)));
    }

    /** Horizontal sum of the two 64-bit partial accumulators. */
    std::int64_t
    total() const
    {
        std::int64_t parts[2];
        std::memcpy(parts, &acc_, sizeof(parts));
        return parts[0] + parts[1];
    }

  private:
    __m128i acc_;
};

/**
 * kMacLanes int32 lanes of broadcast multiply-accumulate (SSE4.2
 * variant of the AVX2 MacBlock; same exactness argument).
 */
class MacBlock
{
  public:
    /** lane i += n * w[i] for i < kMacLanes. */
    template <typename T>
    void
    mulAcc(std::int16_t n, const T *w)
    {
        static_assert(detail::kIsRawI16<T>);
        const __m128i nv = _mm_set1_epi16(n);
        for (int h = 0; h < 2; ++h) {
            __m128i wv;
            std::memcpy(&wv, w + 8 * h, sizeof(wv));
            const __m128i plo = _mm_mullo_epi16(wv, nv);
            const __m128i phi = _mm_mulhi_epi16(wv, nv);
            acc_[2 * h] =
                _mm_add_epi32(acc_[2 * h], _mm_unpacklo_epi16(plo, phi));
            acc_[2 * h + 1] = _mm_add_epi32(acc_[2 * h + 1],
                                            _mm_unpackhi_epi16(plo, phi));
        }
    }

    /** out[i] += lane i for i < kMacLanes, then zero the lanes. */
    void
    flush(std::int64_t *out)
    {
        std::int32_t lanes[kMacLanes];
        std::memcpy(lanes, acc_, sizeof(lanes));
        for (int i = 0; i < kMacLanes; ++i)
            out[i] += lanes[i];
        for (__m128i &a : acc_)
            a = _mm_setzero_si128();
    }

  private:
    __m128i acc_[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                       _mm_setzero_si128(), _mm_setzero_si128()};
};

namespace detail {

/** Per-lane predicate mask: uabs(lane) >= t, as a cmp vector. */
inline __m128i
geVector(VecI16 v, std::uint16_t t)
{
    const __m128i uabs = _mm_abs_epi16(v.v);
    const __m128i vt = _mm_set1_epi16(static_cast<std::int16_t>(t));
    return _mm_cmpeq_epi16(_mm_max_epu16(uabs, vt), uabs);
}

} // namespace detail

/** Number of lanes with unsigned |value| >= t (t must be >= 1). */
inline int
geCount(VecI16 v, std::uint16_t t)
{
    const auto m = static_cast<std::uint32_t>(
        _mm_movemask_epi8(detail::geVector(v, t)));
    return std::popcount(m) / 2;
}

/** Bit i set iff lane i has unsigned |value| >= t (t must be >= 1). */
inline std::uint32_t
geMask(VecI16 v, std::uint16_t t)
{
    const auto m = static_cast<std::uint32_t>(
        _mm_movemask_epi8(detail::geVector(v, t)));
    return detail::evenBits(m);
}

#elif defined(CNV_SIMD_BACKEND_NEON)

/** Identifies the selected backend (for logs and bench labels). */
inline constexpr bool kEnabled = true;
/** 16-bit lanes per vector register. */
inline constexpr int kLanes = 8;

/** Human-readable name of the selected backend. */
constexpr const char *
instructionSet()
{
    return "neon";
}

/** One register of kLanes packed 16-bit values. */
struct VecI16
{
    int16x8_t v;
};

/** Load kLanes consecutive 2-byte elements (unaligned). */
template <typename T>
inline VecI16
loadFull(const T *p)
{
    static_assert(detail::kIsRawI16<T>);
    VecI16 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
}

/** Load n < kLanes elements, zero-filling the remaining lanes. */
template <typename T>
inline VecI16
loadPartial(const T *p, int n)
{
    static_assert(detail::kIsRawI16<T>);
    std::int16_t buf[kLanes] = {};
    std::memcpy(buf, p, static_cast<std::size_t>(n) * sizeof(buf[0]));
    return loadFull(buf);
}

/**
 * Exact 64-bit accumulator of 8x16-bit products: widening multiplies
 * (vmull) followed by pairwise 64-bit accumulation (vpadal).
 */
class DotAccum
{
  public:
    DotAccum() : acc_(vdupq_n_s64(0)) {}

    /** acc += sum over lanes of a[i] * b[i], exactly. */
    void
    mulAcc(VecI16 a, VecI16 b)
    {
        const int32x4_t pl =
            vmull_s16(vget_low_s16(a.v), vget_low_s16(b.v));
        const int32x4_t ph =
            vmull_s16(vget_high_s16(a.v), vget_high_s16(b.v));
        acc_ = vpadalq_s32(acc_, pl);
        acc_ = vpadalq_s32(acc_, ph);
    }

    /** Horizontal sum of the two 64-bit partial accumulators. */
    std::int64_t
    total() const
    {
        return vgetq_lane_s64(acc_, 0) + vgetq_lane_s64(acc_, 1);
    }

  private:
    int64x2_t acc_;
};

/**
 * kMacLanes int32 lanes of broadcast multiply-accumulate: widening
 * multiply-adds (vmlal) form each product exactly; the caller
 * flushes before a lane sum can leave int32.
 */
class MacBlock
{
  public:
    /** lane i += n * w[i] for i < kMacLanes. */
    template <typename T>
    void
    mulAcc(std::int16_t n, const T *w)
    {
        static_assert(detail::kIsRawI16<T>);
        for (int h = 0; h < 2; ++h) {
            int16x8_t wv;
            std::memcpy(&wv, w + 8 * h, sizeof(wv));
            acc_[2 * h] = vmlal_n_s16(acc_[2 * h], vget_low_s16(wv), n);
            acc_[2 * h + 1] =
                vmlal_n_s16(acc_[2 * h + 1], vget_high_s16(wv), n);
        }
    }

    /** out[i] += lane i for i < kMacLanes, then zero the lanes. */
    void
    flush(std::int64_t *out)
    {
        std::int32_t lanes[kMacLanes];
        for (int q = 0; q < 4; ++q) {
            vst1q_s32(lanes + 4 * q, acc_[q]);
            acc_[q] = vdupq_n_s32(0);
        }
        for (int i = 0; i < kMacLanes; ++i)
            out[i] += lanes[i];
    }

  private:
    int32x4_t acc_[4] = {vdupq_n_s32(0), vdupq_n_s32(0), vdupq_n_s32(0),
                         vdupq_n_s32(0)};
};

namespace detail {

/** Per-lane predicate mask: uabs(lane) >= t, all-ones per lane. */
inline uint16x8_t
geVector(VecI16 v, std::uint16_t t)
{
    const uint16x8_t uabs = vreinterpretq_u16_s16(vabsq_s16(v.v));
    return vcgeq_u16(uabs, vdupq_n_u16(t));
}

} // namespace detail

/** Number of lanes with unsigned |value| >= t (t must be >= 1). */
inline int
geCount(VecI16 v, std::uint16_t t)
{
    const uint16x8_t ones =
        vandq_u16(detail::geVector(v, t), vdupq_n_u16(1));
    return static_cast<int>(vaddvq_u16(ones));
}

/** Bit i set iff lane i has unsigned |value| >= t (t must be >= 1). */
inline std::uint32_t
geMask(VecI16 v, std::uint16_t t)
{
    std::uint16_t lanes[kLanes];
    vst1q_u16(lanes, detail::geVector(v, t));
    std::uint32_t mask = 0;
    for (int i = 0; i < kLanes; ++i) {
        if (lanes[i] != 0)
            mask |= 1u << i;
    }
    return mask;
}

#else // scalar fallback

/** Identifies the selected backend (for logs and bench labels). */
inline constexpr bool kEnabled = false;
/** 16-bit lanes per (emulated) vector. */
inline constexpr int kLanes = 8;

/** Human-readable name of the selected backend. */
constexpr const char *
instructionSet()
{
    return "scalar";
}

/** One emulated register of kLanes packed 16-bit values. */
struct VecI16
{
    std::int16_t lane[kLanes];
};

/** Load kLanes consecutive 2-byte elements. */
template <typename T>
inline VecI16
loadFull(const T *p)
{
    static_assert(detail::kIsRawI16<T>);
    VecI16 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
}

/** Load n < kLanes elements, zero-filling the remaining lanes. */
template <typename T>
inline VecI16
loadPartial(const T *p, int n)
{
    static_assert(detail::kIsRawI16<T>);
    VecI16 r = {};
    std::memcpy(r.lane, p, static_cast<std::size_t>(n) *
                               sizeof(r.lane[0]));
    return r;
}

/** Exact 64-bit accumulator of kLanes 16-bit products. */
class DotAccum
{
  public:
    /** acc += sum over lanes of a[i] * b[i], exactly. */
    void
    mulAcc(VecI16 a, VecI16 b)
    {
        for (int i = 0; i < kLanes; ++i) {
            acc_ += static_cast<std::int64_t>(a.lane[i]) *
                    static_cast<std::int64_t>(b.lane[i]);
        }
    }

    /** The accumulated sum. */
    std::int64_t total() const { return acc_; }

  private:
    std::int64_t acc_ = 0;
};

/**
 * kMacLanes int32 lanes of broadcast multiply-accumulate. The caller
 * flushes before a lane sum can leave int32, so no addition here
 * overflows.
 */
class MacBlock
{
  public:
    /** lane i += n * w[i] for i < kMacLanes. */
    template <typename T>
    void
    mulAcc(std::int16_t n, const T *w)
    {
        static_assert(detail::kIsRawI16<T>);
        std::int16_t wv[kMacLanes];
        std::memcpy(wv, w, sizeof(wv));
        for (int i = 0; i < kMacLanes; ++i)
            lane_[i] += std::int32_t{n} * std::int32_t{wv[i]};
    }

    /** out[i] += lane i for i < kMacLanes, then zero the lanes. */
    void
    flush(std::int64_t *out)
    {
        for (int i = 0; i < kMacLanes; ++i) {
            out[i] += lane_[i];
            lane_[i] = 0;
        }
    }

  private:
    std::int32_t lane_[kMacLanes] = {};
};

namespace detail {

/** Unsigned |raw| of one lane (|INT16_MIN| = 32768 fits in u32). */
constexpr std::uint32_t
uabs(std::int16_t raw)
{
    const std::int32_t wide = raw;
    return static_cast<std::uint32_t>(wide < 0 ? -wide : wide);
}

} // namespace detail

/** Number of lanes with unsigned |value| >= t (t must be >= 1). */
inline int
geCount(VecI16 v, std::uint16_t t)
{
    int n = 0;
    for (int i = 0; i < kLanes; ++i) {
        if (detail::uabs(v.lane[i]) >= t)
            ++n;
    }
    return n;
}

/** Bit i set iff lane i has unsigned |value| >= t (t must be >= 1). */
inline std::uint32_t
geMask(VecI16 v, std::uint16_t t)
{
    std::uint32_t mask = 0;
    for (int i = 0; i < kLanes; ++i) {
        if (detail::uabs(v.lane[i]) >= t)
            mask |= 1u << i;
    }
    return mask;
}

#endif // backend selection

/** Lanes of one LaneSums::addWrappedDiffs step, on every backend. */
inline constexpr int kDiffLanes = 16;

/**
 * kWidth 32-bit lane sums (kWidth a multiple of kDiffLanes, at most
 * 64), zeroed on construction and held in registers while the object
 * lives in one function: 2 to 8 AVX2 vectors, 4 to 16 SSE4.2 or NEON
 * vectors, or an array on the scalar backend. It sums rows of wrapping
 * 16-bit differences and reduces the first `lanes` lanes; lanes at and
 * past `lanes` may hold anything and never reach a reduction. All
 * arithmetic wraps mod 2^32, so every backend returns the same values.
 */
template <int kWidth>
class LaneSums
{
    static_assert(kWidth % kDiffLanes == 0 && kWidth > 0 && kWidth <= 64);

  public:
#if defined(CNV_SIMD_BACKEND_AVX2)
    /**
     * lane i += (hi[i] - lo[i]) mod 2^16 for i < kWidth: the difference
     * of two rows of wrapping 16-bit prefix sums, exact whenever the
     * true difference is below 2^16.
     */
    void
    addWrappedDiffs(const std::uint16_t *hi, const std::uint16_t *lo)
    {
        for (int k = 0; k < kWidth / kDiffLanes; ++k) {
            __m256i a, b;
            std::memcpy(&a, hi + kDiffLanes * k, sizeof(a));
            std::memcpy(&b, lo + kDiffLanes * k, sizeof(b));
            const __m256i d = _mm256_sub_epi16(a, b);
            acc_[2 * k] = _mm256_add_epi32(
                acc_[2 * k], _mm256_cvtepu16_epi32(_mm256_castsi256_si128(d)));
            acc_[2 * k + 1] = _mm256_add_epi32(
                acc_[2 * k + 1],
                _mm256_cvtepu16_epi32(_mm256_extracti128_si256(d, 1)));
        }
    }

    /** The largest of lanes [0, lanes), lanes <= kWidth (0 if none). */
    std::uint32_t
    max(int lanes) const
    {
        __m256i m = live(0, lanes);
        for (int k = 1; k < kWidth / 8; ++k)
            m = _mm256_max_epu32(m, live(k, lanes));
        __m128i h = _mm_max_epu32(_mm256_castsi256_si128(m),
                                  _mm256_extracti128_si256(m, 1));
        h = _mm_max_epu32(h, _mm_shuffle_epi32(h, 0x4E));
        h = _mm_max_epu32(h, _mm_shuffle_epi32(h, 0xB1));
        return static_cast<std::uint32_t>(_mm_cvtsi128_si32(h));
    }

    /** The sum of lanes [0, lanes) mod 2^32, lanes <= kWidth. */
    std::uint32_t
    sum(int lanes) const
    {
        __m256i s = live(0, lanes);
        for (int k = 1; k < kWidth / 8; ++k)
            s = _mm256_add_epi32(s, live(k, lanes));
        __m128i h = _mm_add_epi32(_mm256_castsi256_si128(s),
                                  _mm256_extracti128_si256(s, 1));
        h = _mm_add_epi32(h, _mm_shuffle_epi32(h, 0x4E));
        h = _mm_add_epi32(h, _mm_shuffle_epi32(h, 0xB1));
        return static_cast<std::uint32_t>(_mm_cvtsi128_si32(h));
    }

  private:
    /** Vector k (lanes 8k to 8k + 7), lanes at and past `lanes` zeroed. */
    __m256i
    live(int k, int lanes) const
    {
        return _mm256_and_si256(
            acc_[k], _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes - 8 * k),
                                        _mm256_setr_epi32(0, 1, 2, 3, 4, 5,
                                                          6, 7)));
    }

    __m256i acc_[kWidth / 8] = {};
#elif defined(CNV_SIMD_BACKEND_SSE42)
    /** lane i += (hi[i] - lo[i]) mod 2^16 for i < kWidth (see AVX2). */
    void
    addWrappedDiffs(const std::uint16_t *hi, const std::uint16_t *lo)
    {
        for (int k = 0; k < kWidth / 8; ++k) {
            __m128i a, b;
            std::memcpy(&a, hi + 8 * k, sizeof(a));
            std::memcpy(&b, lo + 8 * k, sizeof(b));
            const __m128i d = _mm_sub_epi16(a, b);
            acc_[2 * k] = _mm_add_epi32(acc_[2 * k], _mm_cvtepu16_epi32(d));
            acc_[2 * k + 1] = _mm_add_epi32(
                acc_[2 * k + 1], _mm_unpackhi_epi16(d, _mm_setzero_si128()));
        }
    }

    /** The largest of lanes [0, lanes), lanes <= kWidth (0 if none). */
    std::uint32_t
    max(int lanes) const
    {
        __m128i m = live(0, lanes);
        for (int k = 1; k < kWidth / 4; ++k)
            m = _mm_max_epu32(m, live(k, lanes));
        m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0x4E));
        m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0xB1));
        return static_cast<std::uint32_t>(_mm_cvtsi128_si32(m));
    }

    /** The sum of lanes [0, lanes) mod 2^32, lanes <= kWidth. */
    std::uint32_t
    sum(int lanes) const
    {
        __m128i s = live(0, lanes);
        for (int k = 1; k < kWidth / 4; ++k)
            s = _mm_add_epi32(s, live(k, lanes));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
        return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
    }

  private:
    /** Vector k (lanes 4k to 4k + 3), lanes at and past `lanes` zeroed. */
    __m128i
    live(int k, int lanes) const
    {
        return _mm_and_si128(acc_[k],
                             _mm_cmpgt_epi32(_mm_set1_epi32(lanes - 4 * k),
                                             _mm_setr_epi32(0, 1, 2, 3)));
    }

    __m128i acc_[kWidth / 4] = {};
#elif defined(CNV_SIMD_BACKEND_NEON)
    LaneSums()
    {
        for (uint32x4_t &a : acc_)
            a = vdupq_n_u32(0);
    }

    /** lane i += (hi[i] - lo[i]) mod 2^16 for i < kWidth (see AVX2). */
    void
    addWrappedDiffs(const std::uint16_t *hi, const std::uint16_t *lo)
    {
        for (int k = 0; k < kWidth / 8; ++k) {
            const uint16x8_t d =
                vsubq_u16(vld1q_u16(hi + 8 * k), vld1q_u16(lo + 8 * k));
            acc_[2 * k] = vaddw_u16(acc_[2 * k], vget_low_u16(d));
            acc_[2 * k + 1] = vaddw_u16(acc_[2 * k + 1], vget_high_u16(d));
        }
    }

    /** The largest of lanes [0, lanes), lanes <= kWidth (0 if none). */
    std::uint32_t
    max(int lanes) const
    {
        uint32x4_t m = live(0, lanes);
        for (int k = 1; k < kWidth / 4; ++k)
            m = vmaxq_u32(m, live(k, lanes));
        return vmaxvq_u32(m);
    }

    /** The sum of lanes [0, lanes) mod 2^32, lanes <= kWidth. */
    std::uint32_t
    sum(int lanes) const
    {
        uint32x4_t s = live(0, lanes);
        for (int k = 1; k < kWidth / 4; ++k)
            s = vaddq_u32(s, live(k, lanes));
        return vaddvq_u32(s);
    }

  private:
    /** Vector k (lanes 4k to 4k + 3), lanes at and past `lanes` zeroed. */
    uint32x4_t
    live(int k, int lanes) const
    {
        static constexpr std::uint32_t kIota[4] = {0, 1, 2, 3};
        const uint32x4_t at =
            vaddq_u32(vld1q_u32(kIota), vdupq_n_u32(4u * k));
        return vandq_u32(
            acc_[k],
            vcltq_u32(at, vdupq_n_u32(static_cast<std::uint32_t>(lanes))));
    }

    uint32x4_t acc_[kWidth / 4];
#else
    /** lane i += (hi[i] - lo[i]) mod 2^16 for i < kWidth (see AVX2). */
    void
    addWrappedDiffs(const std::uint16_t *hi, const std::uint16_t *lo)
    {
        for (int i = 0; i < kWidth; ++i)
            lane_[i] += static_cast<std::uint16_t>(hi[i] - lo[i]);
    }

    /** The largest of lanes [0, lanes), lanes <= kWidth (0 if none). */
    std::uint32_t
    max(int lanes) const
    {
        std::uint32_t m = 0;
        for (int i = 0; i < lanes; ++i)
            m = m < lane_[i] ? lane_[i] : m;
        return m;
    }

    /** The sum of lanes [0, lanes) mod 2^32, lanes <= kWidth. */
    std::uint32_t
    sum(int lanes) const
    {
        std::uint32_t s = 0;
        for (int i = 0; i < lanes; ++i)
            s += lane_[i];
        return s;
    }

  private:
    std::uint32_t lane_[kWidth] = {};
#endif
};

#if defined(CNV_SIMD_BACKEND_AVX2)

namespace detail {

/** Lane-wise a * m mod 2^64 for a constant m: three 32x32->64-bit
 *  multiplies, the a_hi * m_hi term falling above bit 63. */
inline __m256i
mulLo64(__m256i a, std::uint64_t m)
{
    const __m256i mv = _mm256_set1_epi64x(static_cast<std::int64_t>(m));
    const __m256i mHi =
        _mm256_set1_epi64x(static_cast<std::int64_t>(m >> 32));
    const __m256i lo = _mm256_mul_epu32(a, mv);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), mv),
                         _mm256_mul_epu32(a, mHi));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/** core::mix64 of each of four 64-bit lanes. */
inline __m256i
mix64x4(__m256i x)
{
    x = _mm256_add_epi64(
        x, _mm256_set1_epi64x(static_cast<std::int64_t>(kGoldenGamma)));
    x = mulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), kMix64Mul1);
    x = mulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), kMix64Mul2);
    return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/**
 * (h >> 11) * 2^-53 of each lane, exactly. The 53-bit draw is split at
 * bit 32: its low part goes into the mantissa of 2^-1, whose ulp is
 * 2^-53, and its high part into that of 2^31, whose ulp is 2^-21.
 * Then (hi - (2^31 + 2^-1)) + lo recombines them; both operations
 * have exactly representable results, so neither rounds.
 */
inline __m256d
unitDoubles(__m256i h)
{
    const __m256i lo = _mm256_blend_epi32(
        _mm256_srli_epi64(h, 11), _mm256_set1_epi64x(0x3FE0000000000000),
        0xAA);
    const __m256i hi = _mm256_or_si256(
        _mm256_srli_epi64(h, 43), _mm256_set1_epi64x(0x41E0000000000000));
    return _mm256_add_pd(_mm256_sub_pd(_mm256_castsi256_pd(hi),
                                       _mm256_set1_pd(0x1.00000001p31)),
                         _mm256_castsi256_pd(lo));
}

} // namespace detail

#endif

/**
 * Counter-based Bernoulli block of n <= 64 elements: bit j of the
 * result is set iff
 *
 *     (mix64(counter + j * kGoldenGamma) >> 11) * 2^-53
 *         < ((s * rate[j]) * scale) * active,
 *
 * output j of the SplitMix64 stream at `counter` as a uniform double
 * in [0, 1) against the element's probability. Reads rate[0, n). The
 * draw is below 1, so a probability clamped to min(1, q) would set
 * the same bits.
 *
 * Every backend yields the same bits. The draw is exact: any integer
 * below 2^53 is a double. The probability is three IEEE multiplies in
 * the order written, never contracted into an FMA (the build passes
 * no -mfma). AVX2 hashes four lanes at a time; SSE4.2 and NEON take
 * the scalar loop, as no 2-lane variant is built or tested.
 */
inline std::uint64_t
bernoulliBlock(std::uint64_t counter, int n, double s, const double *rate,
               double scale, double active)
{
#if defined(CNV_SIMD_BACKEND_AVX2)
    constexpr std::uint64_t g = kGoldenGamma;
    __m256i c = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<std::int64_t>(counter)),
        _mm256_setr_epi64x(0, static_cast<std::int64_t>(g),
                           static_cast<std::int64_t>(2 * g),
                           static_cast<std::int64_t>(3 * g)));
    const __m256i step = _mm256_set1_epi64x(static_cast<std::int64_t>(4 * g));
    const __m256d sv = _mm256_set1_pd(s);
    const __m256d scv = _mm256_set1_pd(scale);
    const __m256d av = _mm256_set1_pd(active);
    const auto lanes = [&](__m256i counters, __m256d r) {
        const __m256d q = _mm256_mul_pd(
            _mm256_mul_pd(_mm256_mul_pd(sv, r), scv), av);
        const __m256d u = detail::unitDoubles(detail::mix64x4(counters));
        return static_cast<std::uint64_t>(
            _mm256_movemask_pd(_mm256_cmp_pd(u, q, _CMP_LT_OQ)));
    };
    std::uint64_t bits = 0;
    int j = 0;
    for (; j + 4 <= n; j += 4, c = _mm256_add_epi64(c, step)) {
        __m256d r;
        std::memcpy(&r, rate + j, sizeof(r));
        bits |= lanes(c, r) << j;
    }
    if (j < n) {
        // Lanes past n load 0, so their q is 0 and u < q is false.
        const __m256i live = _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(n - j), _mm256_setr_epi64x(0, 1, 2, 3));
        bits |= lanes(c, _mm256_maskload_pd(rate + j, live)) << j;
    }
    return bits;
#else
    std::uint64_t bits = 0;
    for (int j = 0; j < n; ++j, counter += kGoldenGamma) {
        const double u = static_cast<double>(mix64(counter) >> 11) * 0x1.0p-53;
        bits |= std::uint64_t{u < s * rate[j] * scale * active} << j;
    }
    return bits;
#endif
}

} // namespace cnv::core::simd

#endif // CNV_CORE_SIMD_H
