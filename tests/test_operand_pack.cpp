/**
 * @file
 * Layout tests of the 8-bit quad stream operands (core/operand_pack.h):
 * the activation and weight quad builders must place every slice
 * exactly where the index formula documented in core/pair_pass.h says,
 * zero the tail steps of a reduction length that is not a multiple of
 * four, zero the compressed vectors of a masked HO plane, and store
 * signed (Sibia) activation planes with their +8 offset. Pure packing -
 * no kernel runs - so this suite means the same on every ISA leg.
 */

#include <gtest/gtest.h>

#include "core/operand_pack.h"
#include "slicing/sbr.h"
#include "slicing/slice_tensor.h"
#include "slicing/straightforward.h"
#include "util/random.h"

namespace panacea {
namespace {

MatrixI32
randomCodes(Rng &rng, std::size_t rows, std::size_t cols,
            std::int32_t lo, std::int32_t hi)
{
    MatrixI32 codes(rows, cols);
    for (auto &c : codes.data())
        c = static_cast<std::int32_t>(rng.uniformInt(lo, hi));
    return codes;
}

/** A K x (N/v) HO mask with roughly `density` of its vectors set. */
MatrixU8
randomMask(Rng &rng, std::size_t rows, std::size_t cols, double density)
{
    MatrixU8 mask(rows, cols, 0);
    for (auto &e : mask.data())
        e = rng.bernoulli(density) ? 1 : 0;
    return mask;
}

/** Every byte of quadSlicePlanes(x, v, mask) against its formula. */
void
expectActivationQuads(const SlicedMatrix &x, int v, const MatrixU8 *mask)
{
    const std::size_t kk = x.rows();
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t n_groups = x.cols() / uv;
    const std::size_t kq = detail::quadCount(kk);
    const int off = x.signedSlices ? 8 : 0;
    const std::vector<std::uint8_t> got = detail::quadSlicePlanes(x, v, mask);
    ASSERT_EQ(got.size(), x.levels() * n_groups * kq * 4 * uv);
    for (std::size_t l = 0; l < x.levels(); ++l) {
        const bool is_ho = l + 1 == x.levels();
        for (std::size_t ng = 0; ng < n_groups; ++ng)
            for (std::size_t q = 0; q < kq; ++q)
                for (std::size_t j = 0; j < uv; ++j)
                    for (std::size_t s = 0; s < 4; ++s) {
                        const std::size_t k = 4 * q + s;
                        int want = 0; // tail steps past kk
                        if (k < kk) {
                            const bool masked =
                                is_ho && mask && (*mask)(k, ng) != 0;
                            want = (masked ? 0
                                           : x.planes[l].data(k, ng * uv + j)) +
                                   off;
                        }
                        const std::size_t at =
                            ((l * n_groups + ng) * kq + q) * 4 * uv +
                            4 * j + s;
                        ASSERT_EQ(static_cast<int>(got[at]), want)
                            << "l=" << l << " ng=" << ng << " k=" << k
                            << " j=" << j << " v=" << v << " kk=" << kk;
                    }
    }
}

TEST(OperandPack, QuadCountsCoverEveryStep)
{
    EXPECT_EQ(detail::quadCount(0), 0u);
    EXPECT_EQ(detail::quadCount(1), 1u);
    EXPECT_EQ(detail::quadCount(4), 1u);
    EXPECT_EQ(detail::quadCount(5), 2u);
    EXPECT_EQ(detail::pairCount(5), 3u);
    EXPECT_EQ(detail::quadCount(2048), 512u);
}

TEST(OperandPack, ActivationQuadsFollowTheIndexFormula)
{
    Rng rng(1601);
    for (int v : {4, 8}) {
        const std::size_t n = 2 * static_cast<std::size_t>(v);
        for (std::size_t kk : {13u, 14u, 15u, 16u}) { // K % 4 = 1, 2, 3, 0
            const SlicedMatrix x = activationSliceMatrix(
                randomCodes(rng, kk, n, 0, 255), 1);
            const MatrixU8 mask = randomMask(rng, kk, n / v, 0.4);
            SCOPED_TRACE(::testing::Message() << "v=" << v << " kk=" << kk);
            expectActivationQuads(x, v, nullptr);
            expectActivationQuads(x, v, &mask);
        }
    }
}

TEST(OperandPack, SignedActivationQuadsCarryTheOffset)
{
    // The Sibia front end's SBR activations: stored as x + 8, masked
    // vectors as the offset alone.
    Rng rng(1602);
    const int v = 4;
    const std::size_t kk = 15;
    const SlicedMatrix x =
        sbrSliceMatrix(randomCodes(rng, kk, 8, -60, 60), 1);
    ASSERT_TRUE(x.signedSlices);
    EXPECT_EQ(detail::quadActOffset(x), 8);
    const MatrixU8 mask = randomMask(rng, kk, 2, 0.5);
    expectActivationQuads(x, v, &mask);
}

TEST(OperandPack, WeightBandQuadsFollowTheIndexFormula)
{
    Rng rng(1603);
    for (int v : {4, 8}) {
        const std::size_t uv = static_cast<std::size_t>(v);
        const std::size_t m = 3 * uv;
        for (std::size_t kk : {13u, 14u, 15u}) {
            const SlicedMatrix w = sbrSliceMatrix(
                randomCodes(rng, m, kk, -(1 << 9), (1 << 9) - 1), 2);
            const std::size_t kq = detail::quadCount(kk);
            const std::size_t pw = 4 * uv;
            std::vector<std::int8_t> wq;
            for (std::size_t mg = 0; mg < m / uv; ++mg) {
                detail::packWeightBandQuad(w, mg, v, wq);
                ASSERT_EQ(wq.size(), w.levels() * kq * pw);
                for (std::size_t l = 0; l < w.levels(); ++l)
                    for (std::size_t q = 0; q < kq; ++q)
                        for (std::size_t i = 0; i < uv; ++i)
                            for (std::size_t s = 0; s < 4; ++s) {
                                const std::size_t k = 4 * q + s;
                                const int want =
                                    k < kk ? w.planes[l].data(mg * uv + i, k)
                                           : 0;
                                ASSERT_EQ(
                                    wq[(l * kq + q) * pw + 4 * i + s], want)
                                    << "v=" << v << " kk=" << kk
                                    << " mg=" << mg << " l=" << l
                                    << " i=" << i << " k=" << k;
                            }

                // The masked HO copy keeps exactly the dense steps, and
                // the row sums add up each row of the plane read.
                const MatrixU8 mask_row = randomMask(rng, 1, kk, 0.5);
                const std::int8_t *ho = wq.data() + (w.levels() - 1) * kq * pw;
                std::vector<std::int8_t> wqm;
                detail::maskBandPlaneQuad(ho, mask_row.row(0).data(), kk, v,
                                          wqm);
                ASSERT_EQ(wqm.size(), kq * pw);
                std::vector<std::int32_t> sums(uv);
                detail::quadRowSums(wqm.data(), kq, v, sums.data());
                for (std::size_t i = 0; i < uv; ++i) {
                    std::int32_t want_sum = 0;
                    for (std::size_t k = 0; k < kq * 4; ++k) {
                        const std::size_t at = (k / 4) * pw + 4 * i + k % 4;
                        const bool dense = k < kk && mask_row(0, k) == 0;
                        ASSERT_EQ(wqm[at], dense ? ho[at] : 0)
                            << "masked v=" << v << " kk=" << kk
                            << " i=" << i << " k=" << k;
                        if (dense)
                            want_sum += ho[at];
                    }
                    EXPECT_EQ(sums[i], want_sum) << "row " << i;
                }
            }
        }
    }
}

TEST(OperandPack, QuadPackRejectsSlicesOutsideTheStreamRange)
{
    // Unsigned 4-bit planes admit 15 > 8 = the weight bound: packing
    // them as stream weights must stop, checked from the metadata.
    Rng rng(1604);
    const SlicedMatrix unsigned_w =
        activationSliceMatrix(randomCodes(rng, 4, 8, 0, 255), 1);
    std::vector<std::int8_t> wq;
    EXPECT_DEATH(detail::packWeightBandQuad(unsigned_w, 0, 4, wq),
                 "quad stream range");
}

} // namespace
} // namespace panacea
