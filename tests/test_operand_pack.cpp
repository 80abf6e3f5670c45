/**
 * @file
 * Layout tests of the 8-bit quad operands (core/operand_pack.h): the
 * activation and weight quad builders must place every slice exactly
 * where the index formula documented in core/pair_pass.h says, zero
 * the tail steps of a reduction length that is not a multiple of four,
 * zero the compressed vectors of a masked HO plane, and store signed
 * (Sibia) activation planes with their +8 offset; the quad lists a
 * pass visits must hold exactly the quads with a dense step. Pure
 * packing - no kernel runs - so this suite means the same on every ISA
 * leg.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

                // The row sums add up each row of every plane.
                for (std::size_t l = 0; l < w.levels(); ++l) {
                    std::vector<std::int32_t> sums(uv);
                    detail::quadRowSums(wq.data() + l * kq * pw, kq, v,
                                        sums.data());
                    for (std::size_t i = 0; i < uv; ++i) {
                        std::int32_t want_sum = 0;
                        for (std::size_t k = 0; k < kk; ++k)
                            want_sum += w.planes[l].data(mg * uv + i, k);
                        EXPECT_EQ(sums[i], want_sum)
                            << "l=" << l << " row " << i;
                    }
                }
            }
        }
    }
}

TEST(OperandPack, QuadListsHoldExactlyTheQuadsWithADenseStep)
{
    // Weight rows and activation skip lists, for K = 0..3 mod 4 across
    // a bitset word edge and densities from empty to full: each quad
    // list is the ascending set of quads holding a dense step, and its
    // count a popcount of the folded bitset.
    Rng rng(1605);
    for (std::size_t kk : {61u, 62u, 63u, 64u, 130u}) {
        for (double density : {0.0, 0.05, 0.5, 1.0}) {
            const MatrixU8 mask = randomMask(rng, kk, 3, 1.0 - density);
            const detail::SkipLists xd = detail::buildSkipLists(mask);
            const std::size_t words = detail::bitsetWords(kk);
            std::vector<std::uint64_t> bits(words);
            std::vector<std::uint8_t> row(kk);
            std::vector<std::uint32_t> wqs(detail::quadCount(kk));
            for (std::size_t ng = 0; ng < 3; ++ng) {
                std::vector<std::uint32_t> want;
                std::size_t dense = 0;
                for (std::size_t k = 0; k < kk; ++k) {
                    row[k] = mask(k, ng);
                    dense += mask(k, ng) == 0;
                    const std::uint32_t q = static_cast<std::uint32_t>(k / 4);
                    if (mask(k, ng) == 0 && (want.empty() || want.back() != q))
                        want.push_back(q);
                }
                SCOPED_TRACE(::testing::Message()
                             << "kk=" << kk << " density=" << density
                             << " ng=" << ng);
                EXPECT_EQ(std::vector<std::uint32_t>(
                              xd.qlist(ng), xd.qlist(ng) + xd.qcount(ng)),
                          want);
                // The weight side: the same mask as one band's row.
                ASSERT_EQ(detail::denseStepsOfRow(row.data(), kk,
                                                  bits.data()),
                          dense);
                const auto word = [&](std::size_t i) { return bits[i]; };
                EXPECT_EQ(detail::quadCountOf(words, word), want.size());
                const std::size_t nq =
                    detail::quadListOf(words, word, wqs.data());
                EXPECT_EQ(std::vector<std::uint32_t>(wqs.begin(),
                                                     wqs.begin() + nq),
                          want);
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
