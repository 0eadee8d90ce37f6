/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Every stochastic choice in capart flows through an explicitly seeded
 * @ref capart::Rng so that every experiment is reproducible bit-for-bit.
 * The generator is xoshiro256** (Blackman & Vigna), which is fast, has a
 * 2^256-1 period, and passes BigCrush.
 */

#ifndef CAPART_COMMON_RNG_HH
#define CAPART_COMMON_RNG_HH

#include <cstdint>

namespace capart
{

/**
 * Derive a child seed from a base seed and a salt.
 *
 * This is the seeding scheme of the parallel sweep infrastructure
 * (src/exec): every experiment in a sweep runs with
 * `mixSeed(base_seed, spec.hash())`, a pure function of *what* the run
 * is, never of *when* or *where* it executes — which is what makes
 * `--jobs=N` output bit-identical to serial for every N. The mix is a
 * hash-combine followed by the splitmix64 finalizer, so nearby bases
 * and salts decorrelate fully.
 */
inline std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t salt)
{
    std::uint64_t z =
        base ^ (salt + 0x9e3779b97f4a7c15ULL + (base << 6) + (base >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Deterministic xoshiro256** pseudo-random number generator. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // splitmix64 step: decorrelates nearby seeds.
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // here: bias is < 2^-40 for the bounds workloads use.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** The 53 high bits of next(): the integer k that uniform() scales. */
    std::uint64_t bits53() { return next() >> 11; }

    /** Uniform double in [0, 1): k * 2^-53 for k = bits53(), exactly. */
    double
    uniform()
    {
        return static_cast<double>(bits53()) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * The integer form of chance(@p p): `bits53() < chanceBelow(p)`
     * holds exactly when `chance(p)` would, draw for draw, since
     * k * 2^-53 < p ⟺ k < ceil(p * 2^53) for integer k.
     */
    static std::uint64_t
    chanceBelow(double p)
    {
        if (!(p > 0.0))
            return 0; // also NaN, which no draw is below
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        // p * 2^53 is exact and below 2^53; round it up.
        const double x = p * 0x1.0p53;
        const auto t = static_cast<std::uint64_t>(x);
        return t + (static_cast<double>(t) < x);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace capart

#endif // CAPART_COMMON_RNG_HH
