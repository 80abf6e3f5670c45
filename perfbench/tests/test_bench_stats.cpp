// Unit tests of the benchmark's pure helpers: input schedules are
// functions of the seed alone, and the tail-percentile rule.

#include <gtest/gtest.h>

#include "bench_stats.h"

using namespace perfbench;

namespace {

FleetMix
mix(double seconds)
{
    FleetMix m;
    m.ratePerS = 30.0;
    m.seconds = seconds;
    return m;
}

bool
same(const std::vector<Arrival> &a, const std::vector<Arrival> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].dueMs != b[i].dueMs || a[i].groups != b[i].groups ||
            a[i].isLong != b[i].isLong || a[i].inputSeed != b[i].inputSeed)
            return false;
    return true;
}

} // namespace

TEST(FleetSchedule, IsAPureFunctionOfTheSeed)
{
    EXPECT_TRUE(same(fleetSchedule(7, mix(10)), fleetSchedule(7, mix(10))));
    EXPECT_FALSE(same(fleetSchedule(7, mix(10)), fleetSchedule(8, mix(10))));
}

TEST(FleetSchedule, OffersTheFixedRateAndMix)
{
    const auto s = fleetSchedule(3, mix(20));
    ASSERT_EQ(s.size(), 600u); // rate * seconds, on every seed
    std::size_t longs = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(s[i].dueMs, 0.0);
        EXPECT_LT(s[i].dueMs, 20000.0);
        if (i > 0)
            EXPECT_LE(s[i - 1].dueMs, s[i].dueMs);
        if (s[i].isLong) {
            ++longs;
            EXPECT_EQ(s[i].groups, 32u);
        } else {
            EXPECT_GE(s[i].groups, 1u);
            EXPECT_LE(s[i].groups, 2u);
        }
    }
    EXPECT_EQ(longs, 600u / 8); // exactly one per block of eight
}

TEST(ChatJob, IsAPureFunctionOfSeedAndIndex)
{
    const ChatJob a = chatJob(5, 11, 2, 4);
    const ChatJob b = chatJob(5, 11, 2, 4);
    EXPECT_EQ(a.promptGroups, b.promptGroups);
    EXPECT_EQ(a.promptSeed, b.promptSeed);
    EXPECT_EQ(a.samplerSeed, b.samplerSeed);
    EXPECT_NE(chatJob(6, 11, 2, 4).promptSeed, a.promptSeed);
    EXPECT_NE(chatJob(5, 12, 2, 4).promptSeed, a.promptSeed);
    for (std::uint64_t i = 0; i < 100; ++i) {
        const ChatJob j = chatJob(9, i, 2, 4);
        EXPECT_GE(j.promptGroups, 2u);
        EXPECT_LE(j.promptGroups, 4u);
    }
}

TEST(Percentile, TailHasAtLeastTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(0), 50.0);
    EXPECT_EQ(tailPercentile(19), 50.0);
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(99), 50.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(999), 90.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(9999), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    for (std::size_t n : {20u, 100u, 1000u, 10000u, 54321u})
        EXPECT_GE(samplesBeyond(n, tailPercentile(n)), 10.0 - 1e-9);
}

TEST(Percentile, InterpolatesBetweenRanks)
{
    std::vector<double> v;
    for (int i = 100; i >= 0; --i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 99.0);
    EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 50), 1.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}
