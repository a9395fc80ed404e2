#include "sim/rng.h"

#include <cmath>

#include "sim/logging.h"

namespace cnv::sim {

Rng::Rng(std::uint64_t seed)
{
    // Seed from the first four outputs of a splitmix64 stream.
    for (std::size_t i = 0; i < state_.size(); ++i)
        state_[i] = core::mix64(seed + i * core::kGoldenGamma);
    // xoshiro256++ requires a nonzero state; splitmix64 of any seed
    // yields all-zero with probability ~2^-256, but guard anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
        state_[0] = 1;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    CNV_ASSERT(n > 0, "uniformInt range must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~0ULL - (~0ULL % n);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    CNV_ASSERT(lo <= hi, "uniformInt bounds out of order");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    // Box-Muller transform, one deviate now and one cached; u1 > 0
    // keeps the log finite.
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * uniform();
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

Rng
Rng::fork(std::uint64_t stream) const
{
    // Derive a child seed from the parent state and the stream id so
    // that distinct streams are decorrelated.
    std::uint64_t s = state_[0] ^ (state_[1] + 0x632be59bd9b4e019ULL * (stream + 1));
    return Rng(core::mix64(s));
}

} // namespace cnv::sim
