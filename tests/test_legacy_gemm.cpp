/**
 * @file
 * Legacy (Sibia-style) bit-slice GEMM tests: exactness, one-sided
 * skipping semantics and stats.
 */

#include <gtest/gtest.h>

#include "core/legacy_gemm.h"
#include "quant/gemm_quant.h"
#include "slicing/slice_tensor.h"
#include "util/random.h"

namespace panacea {
namespace {

MatrixI32
randomSigned(Rng &rng, std::size_t r, std::size_t c, int bits,
             double near_zero_bias)
{
    const std::int32_t lo = -(1 << (bits - 1));
    const std::int32_t hi = (1 << (bits - 1)) - 1;
    const std::int32_t narrow = (1 << (bits - 4)) - 1;
    MatrixI32 m(r, c);
    for (auto &v : m.data())
        v = rng.bernoulli(near_zero_bias)
                ? static_cast<std::int32_t>(rng.uniformInt(-narrow, narrow))
                : static_cast<std::int32_t>(rng.uniformInt(lo, hi));
    return m;
}

TEST(LegacyGemm, ExactAllSkipSides)
{
    Rng rng(41);
    MatrixI32 w = randomSigned(rng, 16, 24, 7, 0.8);
    MatrixI32 x = randomSigned(rng, 24, 8, 7, 0.8);
    SlicedMatrix ws = sbrSliceMatrix(w, 1);
    SlicedMatrix xs = sbrSliceMatrix(x, 1);
    MatrixI64 ref = intGemm(w, x);

    for (auto side : {SibiaSkipSide::Weight, SibiaSkipSide::Activation,
                      SibiaSkipSide::Auto}) {
        LegacyStats stats;
        MatrixI64 acc = legacyBitsliceGemm(ws, xs, 4, side, &stats);
        EXPECT_TRUE(acc == ref);
        EXPECT_EQ(stats.executedOuterProducts +
                      stats.skippedOuterProducts,
                  stats.denseOuterProducts);
    }
}

TEST(LegacyGemm, AutoPicksSparserSide)
{
    Rng rng(42);
    // Dense weights, sparse activations.
    MatrixI32 w = randomSigned(rng, 16, 24, 7, 0.0);
    MatrixI32 x = randomSigned(rng, 24, 8, 7, 0.97);
    SlicedMatrix ws = sbrSliceMatrix(w, 1);
    SlicedMatrix xs = sbrSliceMatrix(x, 1);

    LegacyStats stats;
    (void)legacyBitsliceGemm(ws, xs, 4, SibiaSkipSide::Auto, &stats);
    EXPECT_FALSE(stats.skippedWeightSide);
    EXPECT_GT(stats.rhoX, stats.rhoW);
}

TEST(LegacyGemm, SparseWeightsReportWeightSideSkipped)
{
    Rng rng(45);
    // Sparse weights, dense activations: Auto and forced Weight both
    // skip the weight side, and the merged record must say so.
    MatrixI32 w = randomSigned(rng, 16, 24, 7, 0.97);
    MatrixI32 x = randomSigned(rng, 24, 8, 7, 0.0);
    SlicedMatrix ws = sbrSliceMatrix(w, 1);
    SlicedMatrix xs = sbrSliceMatrix(x, 1);

    for (auto side : {SibiaSkipSide::Auto, SibiaSkipSide::Weight}) {
        LegacyStats stats;
        (void)legacyBitsliceGemm(ws, xs, 4, side, &stats);
        EXPECT_TRUE(stats.skippedWeightSide)
            << "side=" << static_cast<int>(side);
        EXPECT_GT(stats.rhoW, stats.rhoX);
        EXPECT_GT(stats.skippedOuterProducts, 0u);
    }
}

TEST(LegacyGemm, DenseEmaIndependentOfSparsity)
{
    Rng rng(43);
    MatrixI32 w_sparse = randomSigned(rng, 16, 24, 7, 0.95);
    MatrixI32 w_dense = randomSigned(rng, 16, 24, 7, 0.0);
    MatrixI32 x = randomSigned(rng, 24, 8, 7, 0.5);
    SlicedMatrix xs = sbrSliceMatrix(x, 1);

    LegacyStats s1;
    LegacyStats s2;
    (void)legacyBitsliceGemm(sbrSliceMatrix(w_sparse, 1), xs, 4,
                             SibiaSkipSide::Auto, &s1);
    (void)legacyBitsliceGemm(sbrSliceMatrix(w_dense, 1), xs, 4,
                             SibiaSkipSide::Auto, &s2);
    // Sibia ships uncompressed operands: traffic ignores sparsity.
    EXPECT_EQ(s1.emaNibbles, s2.emaNibbles);
}

TEST(LegacyGemm, TenBitWeights)
{
    Rng rng(44);
    MatrixI32 w = randomSigned(rng, 8, 16, 10, 0.6);
    MatrixI32 x = randomSigned(rng, 16, 8, 7, 0.6);
    MatrixI64 acc = legacyBitsliceGemm(sbrSliceMatrix(w, 2),
                                       sbrSliceMatrix(x, 1), 4,
                                       SibiaSkipSide::Auto);
    EXPECT_TRUE(acc == intGemm(w, x));
}

} // namespace
} // namespace panacea
