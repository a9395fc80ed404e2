/**
 * @file
 * The SplitMix64 output function, the one counter-based hash behind
 * every keyed draw: trace synthesis (scalar and in core/simd.h's
 * Bernoulli block), the sim::Rng seeding, and the timing model's
 * lane hashes.
 *
 * Layering: core is the bottom module, so this header includes
 * nothing from src/.
 */

#ifndef CNV_CORE_SPLITMIX_H
#define CNV_CORE_SPLITMIX_H

#include <cstdint>

namespace cnv::core {

/** SplitMix64's increment, 2^64 divided by the golden ratio. */
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;
/** The two multipliers of mix64's xor-shift-multiply rounds. */
inline constexpr std::uint64_t kMix64Mul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kMix64Mul2 = 0x94d049bb133111ebULL;

/**
 * The SplitMix64 output function: a bijective, well-mixed 64-bit hash
 * of `x`. mix64(seed + i * kGoldenGamma) is output i of a SplitMix64
 * stream seeded with `seed`, so a counter-indexed draw needs no state
 * carried between draws.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += kGoldenGamma;
    x = (x ^ (x >> 30)) * kMix64Mul1;
    x = (x ^ (x >> 27)) * kMix64Mul2;
    return x ^ (x >> 31);
}

} // namespace cnv::core

#endif // CNV_CORE_SPLITMIX_H
