/**
 * @file
 * Deterministic pseudo-random sources for workload generation.
 *
 * Simulation results must be reproducible run-to-run, so all randomness
 * flows through an explicitly seeded xoshiro256** generator; nothing in
 * the tree touches std::random_device or global state.
 */

#ifndef XPC_SIM_RANDOM_HH
#define XPC_SIM_RANDOM_HH

#include <cstdint>

namespace xpc {

/** xoshiro256** PRNG: fast, high quality, fully deterministic. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x5eed5eed5eedULL);

    /** @return the next raw 64-bit value. */
    uint64_t next();

    /** @return a uniform value in [0, bound). @p bound must be > 0. */
    uint64_t nextBounded(uint64_t bound);

    /** @return a uniform double in [0, 1). */
    double nextDouble();

  private:
    uint64_t state[4];
};

/**
 * Zipfian key-popularity generator as used by YCSB.
 *
 * Produces values in [0, items) where rank-0 items are requested far
 * more often than the tail, with the standard YCSB skew of 0.99.
 */
class Zipfian
{
  public:
    Zipfian(uint64_t items, double theta = 0.99, uint64_t seed = 42);

    /** @return the next Zipf-distributed item index. */
    uint64_t next();

  private:
    uint64_t items;
    double theta;
    double zetan;
    double alpha;
    double eta;
    Rng rng;

    static double zeta(uint64_t n, double theta);
};

} // namespace xpc

#endif // XPC_SIM_RANDOM_HH
