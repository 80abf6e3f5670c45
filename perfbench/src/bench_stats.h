/**
 * @file
 * Pure helpers of the serving benchmark: a seeded random stream, the
 * workload input schedules (functions of the seed alone) and the
 * percentile rules every reported timing goes through. No library
 * calls and no clocks, so tests/test_bench_stats.cpp can pin them.
 */

#ifndef PERFBENCH_BENCH_STATS_H
#define PERFBENCH_BENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * SplitMix64: a tiny, fully specified generator, so a schedule is the
 * same bytes on every standard library (std::*_distribution is not).
 */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** @return a uniform double in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** @return a uniform integer in [lo, hi]. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

  private:
    std::uint64_t state_;
};

/** One request of the open-loop fleet workload. */
struct Arrival
{
    double dueMs = 0.0;      ///< offset from the start of the phase
    std::size_t groups = 0;  ///< column groups (v columns each)
    bool isLong = false;
    std::uint64_t inputSeed = 0;
};

/** Shape of the fleet workload's traffic. */
struct FleetMix
{
    double ratePerS = 0.0;
    double seconds = 0.0;
    std::size_t shortMinGroups = 1;
    std::size_t shortMaxGroups = 2;
    std::size_t longGroups = 32;
    /** One long request in every block of this many (7 short : 1 long). */
    std::size_t blockSize = 8;
};

/**
 * The fleet arrival schedule: round(rate * seconds) requests at sorted
 * uniform offsets in [0, seconds) - a Poisson process at `rate`
 * conditioned on its count, so every seed offers the same load. Each
 * block of `blockSize` consecutive arrivals holds exactly one long
 * request at a seeded position; shorts draw 1..2 groups. A pure
 * function of (seed, mix).
 */
inline std::vector<Arrival>
fleetSchedule(std::uint64_t seed, const FleetMix &mix)
{
    SeedStream rng(seed ^ 0xf1ee7a11ull);
    const auto count = static_cast<std::size_t>(
        std::llround(mix.ratePerS * mix.seconds));
    std::vector<double> due(count);
    for (double &d : due)
        d = rng.uniform() * mix.seconds * 1000.0;
    std::sort(due.begin(), due.end());

    std::vector<Arrival> out(count);
    std::size_t long_at = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (i % mix.blockSize == 0)
            long_at = i + rng.between(0, mix.blockSize - 1);
        Arrival &a = out[i];
        a.dueMs = due[i];
        a.isLong = i == long_at;
        a.groups = a.isLong ? mix.longGroups
                            : rng.between(mix.shortMinGroups,
                                          mix.shortMaxGroups);
        a.inputSeed = rng.next();
    }
    return out;
}

/** One generation of the closed-loop chat workload. */
struct ChatJob
{
    std::size_t promptGroups = 0;
    std::uint64_t promptSeed = 0;
    std::uint64_t samplerSeed = 0;
};

/**
 * The i-th generation the chat clients issue (in issue order): prompt
 * of minGroups..maxGroups column groups and its seeds. A pure function
 * of (seed, index), so issue order - not timing - fixes the inputs.
 */
inline ChatJob
chatJob(std::uint64_t seed, std::uint64_t index, std::size_t min_groups,
        std::size_t max_groups)
{
    SeedStream rng(seed * 0x2545f4914f6cdd1dull + index);
    rng.next();
    ChatJob j;
    j.promptGroups = rng.between(min_groups, max_groups);
    j.promptSeed = rng.next();
    j.samplerSeed = rng.next();
    return j;
}

/** @return the p-th percentile (0..100) of `v`, linearly interpolated
 *  between closest ranks; 0 for an empty sample. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/** Samples strictly above the p-th percentile of n samples. */
inline double
samplesBeyond(std::size_t n, double p)
{
    return static_cast<double>(n) * (1.0 - p / 100.0);
}

/**
 * The tail rule: of the ladder 50, 90, 99, 99.9, the highest
 * percentile with at least ten samples beyond it among n samples
 * (50 when even the median has fewer - the caller reports n).
 */
inline double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 90.0})
        if (samplesBeyond(n, p) >= 10.0 - 1e-9)
            return p;
    return 50.0;
}

/** @return the median of `v` (0 for an empty sample). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_H
