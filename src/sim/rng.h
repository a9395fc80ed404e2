/**
 * @file
 * Deterministic random number generation for trace synthesis and
 * property tests.
 *
 * All stochastic behaviour in the simulator flows through Rng, or
 * through core::mix64 keyed by an Rng draw, so that every experiment is
 * reproducible from a single seed. The generator is xoshiro256++
 * seeded via splitmix64, which is fast, has a 2^256-1 period, and
 * (unlike std::mt19937 with std::distributions) produces identical
 * streams across standard library implementations.
 */

#ifndef CNV_SIM_RNG_H
#define CNV_SIM_RNG_H

#include <array>
#include <cmath>
#include <cstdint>

#include "core/splitmix.h"

namespace cnv::sim {

/** Deterministic pseudo-random number generator (xoshiro256++). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result =
            rotl(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random bits into the mantissa: uniform on [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller, cached pair). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Derive an independent child generator. Used to give each
     * (network, layer, image) tuple its own stream so that changing
     * one layer's draw count does not perturb the others.
     */
    Rng fork(std::uint64_t stream) const;

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    /** Second half of the last Box-Muller pair. */
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace cnv::sim

#endif // CNV_SIM_RNG_H
