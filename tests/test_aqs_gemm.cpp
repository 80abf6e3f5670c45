/**
 * @file
 * Exactness and accounting tests for the AQS-GEMM engine - the central
 * invariant of the repository: compressing and skipping r-valued HO
 * slice-vectors plus the Eq. (6) compensation reproduces the plain
 * integer GEMM bit-for-bit, for every configuration.
 */

#include <gtest/gtest.h>

#include "core/aqs_gemm.h"
#include "quant/gemm_quant.h"
#include "quant/quantizer.h"
#include "quant/zpm.h"
#include "slicing/sbr.h"
#include "slicing/straightforward.h"
#include "util/random.h"

namespace panacea {
namespace {

/** Random signed codes for a (3n+4)-bit weight matrix. */
MatrixI32
randomWeightCodes(Rng &rng, std::size_t m, std::size_t k, int n,
                  double near_zero_bias = 0.5)
{
    const int bits = sbrBits(n);
    const std::int32_t lo = -(1 << (bits - 1));
    const std::int32_t hi = (1 << (bits - 1)) - 1;
    const std::int32_t narrow = (1 << std::max(1, bits - 4)) - 1;
    MatrixI32 codes(m, k);
    for (auto &c : codes.data()) {
        // A biased mixture produces realistic HO-slice sparsity.
        if (rng.bernoulli(near_zero_bias))
            c = static_cast<std::int32_t>(rng.uniformInt(-narrow, narrow));
        else
            c = static_cast<std::int32_t>(rng.uniformInt(lo, hi));
    }
    return codes;
}

/** Random unsigned codes clustered near a zero point. */
MatrixI32
randomActivationCodes(Rng &rng, std::size_t k, std::size_t n, int bits,
                      std::int32_t zp, double cluster_bias = 0.6)
{
    const std::int32_t hi = (1 << bits) - 1;
    MatrixI32 codes(k, n);
    for (auto &c : codes.data()) {
        if (rng.bernoulli(cluster_bias)) {
            auto v = zp + rng.uniformInt(-6, 6);
            c = static_cast<std::int32_t>(std::clamp<std::int64_t>(
                v, 0, hi));
        } else {
            c = static_cast<std::int32_t>(rng.uniformInt(0, hi));
        }
    }
    return codes;
}

MatrixI64
referenceGemm(const MatrixI32 &w, const MatrixI32 &x)
{
    return intGemm(w, x);
}

TEST(AqsGemm, ExactOnDenseRandomCodes)
{
    Rng rng(11);
    MatrixI32 w = randomWeightCodes(rng, 16, 24, 1, 0.0);
    MatrixI32 x = randomActivationCodes(rng, 24, 8, 8, 130, 0.0);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, 130, cfg);
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg);
    EXPECT_TRUE(acc == referenceGemm(w, x));
}

TEST(AqsGemm, ExactWithHighSparsity)
{
    Rng rng(12);
    const std::int32_t zp = 136;
    MatrixI32 w = randomWeightCodes(rng, 32, 40, 1, 0.9);
    MatrixI32 x = randomActivationCodes(rng, 40, 16, 8, zp, 0.95);

    AqsConfig cfg;
    AqsStats stats;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg, &stats);
    EXPECT_TRUE(acc == referenceGemm(w, x));
    EXPECT_GT(stats.skippedOuterProducts, 0u);
    EXPECT_GT(stats.macReduction(), 0.2);
}

TEST(AqsGemm, ExactWithEq5Compensation)
{
    Rng rng(13);
    const std::int32_t zp = 136;
    MatrixI32 w = randomWeightCodes(rng, 16, 32, 1, 0.7);
    MatrixI32 x = randomActivationCodes(rng, 32, 8, 8, zp, 0.9);

    AqsConfig cfg;
    cfg.useEq6 = false;
    AqsStats stats;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg, &stats);
    EXPECT_TRUE(acc == referenceGemm(w, x));
    // Eq. (5) pays extra external traffic for the compensation loads.
    EXPECT_GT(stats.compExtraEmaNibbles, 0u);
}

TEST(AqsGemm, Exact4BitWeights)
{
    Rng rng(14);
    MatrixI32 w = randomWeightCodes(rng, 16, 20, 0, 0.5);
    MatrixI32 x = randomActivationCodes(rng, 20, 8, 8, 72, 0.8);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 0, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, 72, cfg);
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg);
    EXPECT_TRUE(acc == referenceGemm(w, x));
}

TEST(AqsGemm, Exact10BitWeights12BitActs)
{
    Rng rng(15);
    MatrixI32 w = randomWeightCodes(rng, 8, 16, 2, 0.6);
    MatrixI32 x = randomActivationCodes(rng, 16, 8, 12, 2048, 0.7);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 2, cfg);
    ActivationOperand x_op = prepareActivations(x, 2, 2048, cfg);
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg);
    EXPECT_TRUE(acc == referenceGemm(w, x));
}

TEST(AqsGemm, ExactUnderDbsSlicing)
{
    Rng rng(16);
    for (int lo_bits : {4, 5, 6}) {
        const std::int32_t zp = 136;
        ZpmResult zpm = manipulateZeroPoint(zp, 8, lo_bits);
        MatrixI32 w = randomWeightCodes(rng, 16, 24, 1, 0.6);
        MatrixI32 x = randomActivationCodes(rng, 24, 8, 8,
                                            zpm.zeroPoint, 0.8);

        AqsConfig cfg;
        WeightOperand w_op = prepareWeights(w, 1, cfg);
        ActivationOperand x_op = prepareActivationsDbs(
            x, lo_bits, static_cast<Slice>(zpm.frequentSlice), cfg);
        MatrixI64 acc = aqsGemm(w_op, x_op, cfg);

        // DBS discards the (l-4) LSBs: the result must equal the GEMM
        // over LSB-masked codes.
        MatrixI32 masked = x;
        for (auto &c : masked.data())
            c &= ~((1 << (lo_bits - 4)) - 1);
        EXPECT_TRUE(acc == referenceGemm(w, masked))
            << "DBS l=" << lo_bits;
    }
}

TEST(AqsGemm, ZeroOnlySkipIsExactWithoutCompensation)
{
    Rng rng(17);
    MatrixI32 w = randomWeightCodes(rng, 16, 24, 1, 0.7);
    // Cluster near zero so zero-only skipping has something to skip.
    MatrixI32 x = randomActivationCodes(rng, 24, 8, 8, 3, 0.9);

    AqsConfig cfg;
    cfg.actSkip = ActSkipMode::ZeroOnly;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, 3, cfg);
    AqsStats stats;
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg, &stats);
    EXPECT_TRUE(acc == referenceGemm(w, x));
    EXPECT_EQ(stats.compMults, 0u);
    EXPECT_EQ(stats.compAdds, 0u);
}

TEST(AqsGemm, NoneModeMatchesDenseCounts)
{
    Rng rng(18);
    MatrixI32 w = randomWeightCodes(rng, 16, 24, 1, 0.0);
    MatrixI32 x = randomActivationCodes(rng, 24, 8, 8, 130, 0.9);
    // One code of magnitude 63 in every 4-row band and column gives
    // each weight HO vector a nonzero slice, so nothing is compressed
    // on the weight side either.
    for (std::size_t g = 0; g < w.rows() / 4; ++g)
        for (std::size_t k = 0; k < w.cols(); ++k)
            w(4 * g, k) = (k % 2 == 0) ? 63 : -63;

    AqsConfig cfg;
    cfg.actSkip = ActSkipMode::None;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    for (std::uint8_t bit : w_op.hoMask.data())
        ASSERT_EQ(bit, 0);
    ActivationOperand x_op = prepareActivations(x, 1, 130, cfg);
    AqsStats stats;
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg, &stats);
    EXPECT_TRUE(acc == referenceGemm(w, x));
    EXPECT_EQ(stats.executedOuterProducts, stats.denseOuterProducts);
    EXPECT_EQ(stats.skippedOuterProducts, 0u);
}

TEST(AqsGemm, StatsConservation)
{
    Rng rng(19);
    MatrixI32 w = randomWeightCodes(rng, 32, 48, 1, 0.8);
    MatrixI32 x = randomActivationCodes(rng, 48, 16, 8, 136, 0.85);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, 136, cfg);
    AqsStats stats;
    (void)aqsGemm(w_op, x_op, cfg, &stats);
    EXPECT_EQ(stats.executedOuterProducts + stats.skippedOuterProducts,
              stats.denseOuterProducts);
    EXPECT_EQ(stats.mults, stats.executedOuterProducts * 16);
    EXPECT_LE(stats.totalTrafficNibbles(),
              stats.denseNibbles + stats.denseNibbles / 2);
}

/** Parametrized sweep: exactness across the sparsity spectrum. */
class AqsGemmSparsitySweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{};

TEST_P(AqsGemmSparsitySweep, ExactEverywhere)
{
    const double w_bias = std::get<0>(GetParam());
    const double x_bias = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(w_bias * 100 + x_bias * 10000) + 7);

    const std::int32_t zp = 136;
    MatrixI32 w = randomWeightCodes(rng, 24, 36, 1, w_bias);
    MatrixI32 x = randomActivationCodes(rng, 36, 12, 8, zp, x_bias);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
    AqsStats stats;
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg, &stats);
    EXPECT_TRUE(acc == referenceGemm(w, x));
    EXPECT_EQ(stats.executedOuterProducts + stats.skippedOuterProducts,
              stats.denseOuterProducts);
}

INSTANTIATE_TEST_SUITE_P(
    SparsityGrid, AqsGemmSparsitySweep,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 0.95),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75, 0.95)));

/** Exactness for every r value the zero point can produce. */
class AqsGemmZeroPointSweep : public ::testing::TestWithParam<int>
{};

TEST_P(AqsGemmZeroPointSweep, ExactForEveryZeroPoint)
{
    const std::int32_t zp = GetParam();
    Rng rng(static_cast<std::uint64_t>(zp) + 101);
    MatrixI32 w = randomWeightCodes(rng, 16, 20, 1, 0.5);
    MatrixI32 x = randomActivationCodes(rng, 20, 8, 8, zp, 0.8);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
    MatrixI64 acc = aqsGemm(w_op, x_op, cfg);
    EXPECT_TRUE(acc == referenceGemm(w, x));
}

INSTANTIATE_TEST_SUITE_P(ZeroPoints, AqsGemmZeroPointSweep,
                         ::testing::Values(0, 8, 16, 40, 88, 100, 128,
                                           136, 161, 200, 248, 255));

} // namespace
} // namespace panacea
