/**
 * @file
 * Hardware-faithful unit tests for the small PEA components: the
 * shift-accumulator (S-ACC), the compensator (CS) against the AQS-GEMM's
 * internal compensation, and the RLE index decoder (IDXD).
 */

#include <gtest/gtest.h>

#include "arch/compensator.h"
#include "arch/idx_decoder.h"
#include "arch/s_acc.h"
#include "core/aqs_gemm.h"
#include "quant/gemm_quant.h"
#include "util/random.h"

namespace panacea {
namespace {

TEST(SAcc, ShiftAndAccumulate)
{
    ShiftAccumulator acc;
    acc.accumulate(3, 4);    // 48
    acc.accumulate(-2, 0);   // 46
    acc.accumulate(1, 8);    // 302
    EXPECT_EQ(acc.value(), 302);
    EXPECT_EQ(acc.shiftsPerformed(), 3u);
    acc.reset();
    EXPECT_EQ(acc.value(), 0);
}

TEST(SAcc, DbsShiftCombination)
{
    // DBS type-2 (l = 5): HO partials shift by 5, LO by 1.
    EXPECT_EQ(sAccShift(0, 5), 5);
    EXPECT_EQ(sAccShift(3, 1), 4);
}

TEST(IdxDecoder, RecoverIndicesFromSkips)
{
    std::vector<Slice> vectors(10 * 4, 7);
    for (int j = 0; j < 4; ++j) {
        vectors[2 * 4 + j] = 1;
        vectors[7 * 4 + j] = 2;
    }
    RleStream stream = RleStream::encode(vectors, 10, 4, 7, 4);
    auto indices = IndexDecoder::decodeIndices(stream);
    ASSERT_EQ(indices.size(), 2u);
    EXPECT_EQ(indices[0], 2u);
    EXPECT_EQ(indices[1], 7u);
}

TEST(IdxDecoder, MatchIndices)
{
    std::vector<std::uint32_t> a = {0, 2, 5, 9, 11};
    std::vector<std::uint32_t> b = {2, 3, 9, 12};
    auto matched = IndexDecoder::matchIndices(a, b);
    ASSERT_EQ(matched.size(), 2u);
    EXPECT_EQ(matched[0], 2u);
    EXPECT_EQ(matched[1], 9u);
}

TEST(Compensator, MatchesAqsGemmCompensation)
{
    // Run the functional engine with and without r-skipping; the
    // difference of the two accumulators is exactly the compensation a
    // CS must produce for each output block.
    Rng rng(121);
    const std::int32_t zp = 136;
    const Slice r = zp >> 4;
    MatrixI32 w(4, 24);
    MatrixI32 x(24, 4);
    for (auto &v : w.data())
        v = static_cast<std::int32_t>(rng.uniformInt(-64, 63));
    for (auto &v : x.data())
        v = rng.bernoulli(0.7)
                ? (static_cast<std::int32_t>(r) << 4) +
                      static_cast<std::int32_t>(rng.uniformInt(0, 15))
                : static_cast<std::int32_t>(rng.uniformInt(0, 255));

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);

    // Feed the CS exactly what the hardware would: the total weight
    // columns at activation-uncompressed indices.
    Compensator cs(4, 4);
    std::vector<std::int64_t> b_prime(4, 0);
    for (int i = 0; i < 4; ++i) {
        std::int64_t sum = 0;
        for (std::size_t k = 0; k < 24; ++k)
            sum += w_op.totalCodes(i, k);
        b_prime[i] = sum * (static_cast<std::int64_t>(r) << 4);
    }
    // Absorb each plane's column separately, exactly as the CS's small
    // S-ACCs accumulate the loaded weight slices.
    for (std::size_t k = 0; k < 24; ++k) {
        if (x_op.hoMask(k, 0))
            continue;
        for (const SlicePlane &plane : w_op.sliced.planes) {
            Slice col[4];
            for (int i = 0; i < 4; ++i)
                col[i] = plane.data(i, k);
            cs.absorbColumn(std::span<const Slice>(col, 4), plane.shift);
        }
    }
    std::vector<std::int64_t> comp = cs.finish(b_prime, r);

    // Reference: the dense product, from the plain integer GEMM.
    const MatrixI64 full = intGemm(w, x);

    AqsConfig skip_nocomp = cfg;
    MatrixI64 with_comp = aqsGemm(w_op, x_op, skip_nocomp);
    // with_comp == full (exactness); so the CS output must equal the
    // contribution of the skipped HO vectors.
    EXPECT_TRUE(with_comp == full);

    // Direct check of the CS arithmetic: comp == r*2^4 * sum of
    // compressed columns of the total weight.
    for (int i = 0; i < 4; ++i) {
        std::int64_t expect = 0;
        for (std::size_t k = 0; k < 24; ++k)
            if (x_op.hoMask(k, 0))
                expect += w_op.totalCodes(i, k) *
                          (static_cast<std::int64_t>(r) << 4);
        EXPECT_EQ(comp[i], expect) << "row " << i;
    }
    EXPECT_GT(cs.adds(), 0u);
    EXPECT_EQ(cs.mults(), 16u);
}

} // namespace
} // namespace panacea
