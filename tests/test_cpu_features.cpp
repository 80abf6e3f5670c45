/**
 * @file
 * Tests for the runtime ISA detection and selection layer
 * (util/cpu_features.h): name parsing, ordering, clamping of
 * overrides to what the host + build support, and the dispatch-table
 * invariant that every returned row is fully populated.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/pair_pass.h"
#include "isa_guard.h"
#include "util/cpu_features.h"

namespace panacea {
namespace {

TEST(CpuFeatures, NamesRoundTrip)
{
    for (IsaLevel lvl : {IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2,
                         IsaLevel::Avx512, IsaLevel::Avx512Vnni}) {
        IsaLevel parsed;
        ASSERT_TRUE(parseIsaLevel(toString(lvl), &parsed));
        EXPECT_EQ(parsed, lvl);
    }
    IsaLevel parsed;
    EXPECT_TRUE(parseIsaLevel("AVX2", &parsed)); // case-insensitive
    EXPECT_EQ(parsed, IsaLevel::Avx2);
    EXPECT_TRUE(parseIsaLevel("avx512vnni", &parsed)); // alias of "vnni"
    EXPECT_EQ(parsed, IsaLevel::Avx512Vnni);
    EXPECT_FALSE(parseIsaLevel("avx1024", &parsed));
    EXPECT_FALSE(parseIsaLevel("", &parsed));
}

TEST(CpuFeatures, ActiveLevelNeverExceedsSupport)
{
    IsaGuard guard;
    for (IsaLevel lvl : {IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2,
                         IsaLevel::Avx512, IsaLevel::Avx512Vnni}) {
        setIsaLevel(lvl);
        EXPECT_LE(activeIsaLevel(), detectedIsaLevel());
        EXPECT_LE(activeIsaLevel(), compiledIsaLevel());
        EXPECT_LE(activeIsaLevel(), lvl); // clamped down, never up
    }
}

TEST(CpuFeatures, ScalarOverrideAlwaysHonored)
{
    IsaGuard guard;
    setIsaLevel(IsaLevel::Scalar);
    EXPECT_EQ(activeIsaLevel(), IsaLevel::Scalar);
    resetIsaLevel();
    // Back to env/auto - whatever that is, it must be runnable.
    EXPECT_LE(activeIsaLevel(), detectedIsaLevel());
}

TEST(CpuFeatures, DispatchTableRowsAreFullyPopulated)
{
    // Every row, scalar included, carries both quad slots.
    for (IsaLevel lvl : {IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2,
                         IsaLevel::Avx512, IsaLevel::Avx512Vnni}) {
        const detail::PairPassKernels &kern = detail::pairPassKernels(lvl);
        EXPECT_NE(kern.stream4, nullptr);
        EXPECT_NE(kern.streamGeneric, nullptr);
        // The row handed back must itself be runnable on this host.
        EXPECT_LE(kern.level, detectedIsaLevel());
        EXPECT_LE(kern.level, compiledIsaLevel());
    }
}

TEST(CpuFeatures, EveryRowRunsBothSlotsLikeTheScalarRow)
{
    // Each row's v = 4 and generic slots, streamed and listed (empty,
    // tail-only, scattered and full lists), against the scalar row on
    // the same quads. Slices sit at the bounds the kernels assume.
    const std::size_t kq = 7; // odd, and not a multiple of 4
    const std::vector<std::vector<std::uint32_t>> lists = {
        {}, {6}, {0, 2, 3, 6}, {0, 1, 2, 3, 4, 5, 6}};
    const detail::PairPassKernels &scalar =
        detail::pairPassKernels(IsaLevel::Scalar);
    for (int v : {4, 5, 8, 16}) {
        const std::size_t bytes = kq * 4 * static_cast<std::size_t>(v);
        std::vector<std::int8_t> wq(bytes);
        std::vector<std::uint8_t> xq(bytes);
        for (std::size_t b = 0; b < bytes; ++b) {
            wq[b] = static_cast<std::int8_t>(static_cast<int>(b * 7 % 17) - 8);
            xq[b] = static_cast<std::uint8_t>(b * 13 % 64);
        }
        for (IsaLevel lvl :
             {IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2,
              IsaLevel::Avx512, IsaLevel::Avx512Vnni}) {
            const detail::PairPassKernels &kern =
                detail::pairPassKernels(lvl);
            for (std::size_t li = 0; li <= lists.size(); ++li) {
                const bool identity = li == lists.size();
                const std::uint32_t *qs =
                    identity ? nullptr : lists[li].data();
                const std::size_t nq = identity ? kq : lists[li].size();
                std::vector<std::int32_t> want(
                    static_cast<std::size_t>(v * v), -1);
                std::vector<std::int32_t> got(want.size(), -1);
                scalar.streamGeneric(wq.data(), xq.data(), qs, nq,
                                     identity, v, want.data());
                if (v == 4)
                    kern.stream4(wq.data(), xq.data(), qs, nq, identity,
                                 got.data());
                else
                    kern.streamGeneric(wq.data(), xq.data(), qs, nq,
                                       identity, v, got.data());
                EXPECT_EQ(got, want)
                    << "isa=" << toString(kern.level) << " v=" << v
                    << " list=" << (identity ? "stream" : "listed")
                    << " nq=" << nq;
            }
        }
    }
}

TEST(CpuFeatures, RunnableLevelsAreOrderedAndStartScalar)
{
    IsaGuard guard;
    const std::vector<IsaLevel> levels = runnableIsaLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), IsaLevel::Scalar);
    for (std::size_t i = 1; i < levels.size(); ++i)
        EXPECT_LT(levels[i - 1], levels[i]);
}

} // namespace
} // namespace panacea
