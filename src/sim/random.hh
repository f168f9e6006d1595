/**
 * @file
 * Deterministic pseudo-random number generation and the sampling
 * distributions used by the workload generators.
 *
 * The generator is PCG32 (O'Neill): small state, good statistical
 * quality, and fully reproducible across platforms, which matters for
 * regression-testing simulation results.
 */

#ifndef AQUA_SIM_RANDOM_HH
#define AQUA_SIM_RANDOM_HH

#include <cstdint>

namespace aqua::sim {

/**
 * PCG32 pseudo-random generator with convenience samplers.
 */
class Random
{
  public:
    /** Construct with a seed; the same seed replays the same stream. */
    explicit Random(std::uint64_t seed = 0x853c49e6748fea9bULL);

    /** Next raw 32-bit value. */
    std::uint32_t next32();

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponentially distributed value with the given rate (1/mean). */
    double exponential(double rate);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with explicit mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal sample.
     *
     * @param mu Mean of the underlying normal.
     * @param sigma Stddev of the underlying normal.
     */
    double lognormal(double mu, double sigma);

    /** Poisson-distributed count with the given mean. */
    std::uint64_t poisson(double mean);

    /** Bernoulli trial with probability @p p of returning true. */
    bool bernoulli(double p);

  private:
    std::uint64_t state;
    std::uint64_t inc;
    bool haveSpareNormal = false;
    double spareNormal = 0.0;
};

/**
 * Derive an independent stream keyed by (seed, domain, stream).
 *
 * Unlike Simulation::makeRandom(), whose streams are numbered in
 * global creation order, the key here is structural: domain d's
 * stream s is the same generator no matter what other domains exist
 * or in which order they were built. DomainNet::domainRandom() draws
 * per-domain randomness through this helper, so one domain's draws
 * never perturb another's (see docs/simulation.md).
 */
Random domainStream(std::uint64_t seed, std::uint32_t domain,
                    std::uint32_t stream);

} // namespace aqua::sim

#endif // AQUA_SIM_RANDOM_HH
