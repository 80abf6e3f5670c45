/**
 * @file
 * Internal operand-preparation helpers of the blocked AQS-GEMM band
 * (which also runs the legacy bit-slice GEMM): the 8-bit quad layout
 * every pair pass reads (s8 weights, u8 activations, four reduction
 * steps per 32-bit lane; see core/pair_pass.h), dense-step bitsets and
 * skip lists derived from an HO compression mask, and the quad lists a
 * pass visits - the quads of four steps that hold at least one dense
 * step.
 */

#ifndef PANACEA_CORE_OPERAND_PACK_H
#define PANACEA_CORE_OPERAND_PACK_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "slicing/slice_tensor.h"
#include "slicing/slice_types.h"
#include "util/logging.h"
#include "util/matrix.h"
#include "util/parallel_for.h"

namespace panacea {
namespace detail {

/** @return step quads covering kk reduction steps (the tail pads). */
inline std::size_t
quadCount(std::size_t kk)
{
    return (kk + 3) / 4;
}

/** @return 64-bit words of a dense-step bitset over kk steps. */
inline std::size_t
bitsetWords(std::size_t kk)
{
    return (kk + 63) / 64;
}

/**
 * Fold a dense-step word onto its quads: bit 4b of the result is set
 * iff any of steps 4b..4b+3 is (a quad never straddles a word).
 */
inline std::uint64_t
quadLeadBits(std::uint64_t word)
{
    word |= word >> 1;
    word |= word >> 2;
    return word & 0x1111111111111111ull;
}

/** @return quads holding a set bit of words[0..n_words) (word(i) yields
 *  word i, so an intersection is counted without materializing it). */
template <typename WordFn>
inline std::size_t
quadCountOf(std::size_t n_words, WordFn word)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_words; ++i)
        count += static_cast<std::size_t>(
            std::popcount(quadLeadBits(word(i))));
    return count;
}

/**
 * Write the quads holding a set bit of words[0..n_words) to `out` in
 * ascending order (bit b of word i is step 64*i + b, quad (64*i + b)/4),
 * by count-trailing-zeros over the folded words. @return the count.
 */
template <typename WordFn>
inline std::size_t
quadListOf(std::size_t n_words, WordFn word, std::uint32_t *out)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_words; ++i) {
        for (std::uint64_t bits = quadLeadBits(word(i)); bits != 0;
             bits &= bits - 1)
            out[count++] = static_cast<std::uint32_t>(
                (i * 64 + static_cast<std::size_t>(std::countr_zero(bits))) >>
                2);
    }
    return count;
}

/**
 * Dense-step bitset of one weight band's HO mask row (bit k set iff
 * row[k] == 0; bits past kk stay clear), built branch-free into
 * bitsetWords(kk) words. @return the number of dense steps.
 */
inline std::size_t
denseStepsOfRow(const std::uint8_t *row, std::size_t kk,
                std::uint64_t *bits)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < bitsetWords(kk); ++i) {
        const std::size_t k0 = i * 64;
        const std::size_t len = std::min<std::size_t>(64, kk - k0);
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < len; ++b)
            word |= static_cast<std::uint64_t>(row[k0 + b] == 0) << b;
        bits[i] = word;
        count += static_cast<std::size_t>(std::popcount(word));
    }
    return count;
}

/**
 * Per-n-group skip lists for the activation side, shared read-only by
 * every band: ks[offsets[ng] .. offsets[ng+1]) are the reduction steps
 * whose HO vector is NOT compressed (dense steps). `identity`
 * short-circuits the indirection when no skipping is active.
 *
 * The same dense steps also come as one 64-bit-word bitset per n-group
 * (bit k of bits[ng * words + k / 64], bits past kk clear), and as the
 * list of quads that hold one (qks, the activation-side pass list). A
 * band ANDs the bitset with its weight row's (denseStepsOfRow) to get
 * the HO_w x HO_x intersection word-parallel: its quad count is a
 * popcount, and its quad list, when a listed pass reads it, is written
 * by count-trailing-zeros (quadListOf).
 */
struct SkipLists
{
    bool identity = false;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> ks;
    /// Complement lists (the COMPRESSED steps), for reductions that
    /// iterate whichever side of the partition is shorter.
    std::vector<std::uint32_t> coffsets;
    std::vector<std::uint32_t> cks;
    /// Dense-step bitsets, `words` = bitsetWords(kk) per n-group.
    std::size_t words = 0;
    std::vector<std::uint64_t> bits;
    /// Quads holding a dense step, per n-group.
    std::vector<std::uint32_t> qoffsets;
    std::vector<std::uint32_t> qks;

    std::size_t
    count(std::size_t ng) const
    {
        return offsets[ng + 1] - offsets[ng];
    }
    const std::uint32_t *
    list(std::size_t ng) const
    {
        return ks.data() + offsets[ng];
    }
    std::size_t
    ccount(std::size_t ng) const
    {
        return coffsets[ng + 1] - coffsets[ng];
    }
    const std::uint32_t *
    clist(std::size_t ng) const
    {
        return cks.data() + coffsets[ng];
    }
    const std::uint64_t *
    bitset(std::size_t ng) const
    {
        return bits.data() + ng * words;
    }
    std::size_t
    qcount(std::size_t ng) const
    {
        return qoffsets[ng + 1] - qoffsets[ng];
    }
    const std::uint32_t *
    qlist(std::size_t ng) const
    {
        return qks.data() + qoffsets[ng];
    }
};

/**
 * Build skip lists from a K x (N/v) compression mask: list ng holds the
 * k with mask(k, ng) == 0, in increasing order (complement list: the
 * k with mask(k, ng) != 0), bitset ng has exactly those k set, and
 * quad list ng the quads of four steps holding one of them.
 */
inline SkipLists
buildSkipLists(const MatrixU8 &mask)
{
    SkipLists out;
    const std::size_t kk = mask.rows();
    const std::size_t n_groups = mask.cols();
    out.offsets.resize(n_groups + 1, 0);
    out.coffsets.resize(n_groups + 1, 0);
    out.ks.reserve(n_groups * kk);
    out.words = bitsetWords(kk);
    out.bits.assign(n_groups * out.words, 0);
    for (std::size_t ng = 0; ng < n_groups; ++ng) {
        std::uint64_t *bits = out.bits.data() + ng * out.words;
        for (std::size_t k = 0; k < kk; ++k) {
            if (mask(k, ng) == 0) {
                out.ks.push_back(static_cast<std::uint32_t>(k));
                bits[k / 64] |= std::uint64_t{1} << (k % 64);
            } else {
                out.cks.push_back(static_cast<std::uint32_t>(k));
            }
        }
        out.offsets[ng + 1] = static_cast<std::uint32_t>(out.ks.size());
        out.coffsets[ng + 1] = static_cast<std::uint32_t>(out.cks.size());
    }
    out.qoffsets.resize(n_groups + 1, 0);
    out.qks.resize(n_groups * quadCount(kk));
    std::size_t nq = 0;
    for (std::size_t ng = 0; ng < n_groups; ++ng) {
        const std::uint64_t *bits = out.bitset(ng);
        nq += quadListOf(out.words, [bits](std::size_t i) { return bits[i]; },
                         out.qks.data() + nq);
        out.qoffsets[ng + 1] = static_cast<std::uint32_t>(nq);
    }
    out.qks.resize(nq);
    return out;
}

/// Slice bounds the quad kernels rely on (core/pair_pass.h):
/// weight slices |w| <= 8 (stored s8), activation slices
/// 0 <= x <= 63 (stored u8).
inline constexpr int kQuadWeightAbsMax = 8;
inline constexpr int kQuadActMax = 63;

/**
 * What the quad layout adds to every stored activation slice: signed
 * (SBR) activation planes - only the Sibia front end has them - are
 * stored as x + 8 so they fit u8; the band subtracts 8 * sum(w) per
 * output row of each such pass (quadRowSums). Unsigned planes are
 * stored as they are.
 */
inline int
quadActOffset(const SlicedMatrix &x)
{
    return x.signedSlices ? -signedSliceMin : 0;
}

/**
 * The quad packers' precondition, checked once per operand from the
 * plane metadata rather than per element: every slice the metadata
 * admits ([-8, 7] for signed planes, [0, 15] for unsigned ones) must,
 * after `offset`, lie in [lo, hi].
 */
inline void
checkQuadSliceRange(const SlicedMatrix &m, int offset, int lo, int hi,
                    const char *what)
{
    const int min = (m.signedSlices ? signedSliceMin : unsignedSliceMin) +
                    offset;
    const int max = (m.signedSlices ? signedSliceMax : unsignedSliceMax) +
                    offset;
    panic_if(min < lo || max > hi, what, " slices span [", min, ", ", max,
             "], outside the quad stream range [", lo, ", ", hi, "]");
}

/**
 * 8-bit quad copies of a matrix's activation slice planes, the
 * activation operand of every pair pass (core/pair_pass.h), blocked per
 * column group so a pass reads one contiguous run:
 *
 *   out[((l * n_groups + ng) * kq + q) * 4v + 4j + s]
 *     = plane_l(4q + s, ng*v + j) + quadActOffset(sliced)
 *
 * with kq = quadCount(kk); tail steps past kk stay zero. When `ho_mask`
 * (K x N/v, 1 = compressed) is non-null, the HO plane's compressed
 * vectors are stored as zero slices (the offset alone), so a pass over
 * any superset of the dense steps' quads sums exactly the skip list's
 * dense steps. Parallel over column groups; chunks write disjoint
 * blocks of the pre-sized output, so the result is byte-identical for
 * any thread count.
 */
inline std::vector<std::uint8_t>
quadSlicePlanes(const SlicedMatrix &sliced, int v, const MatrixU8 *ho_mask)
{
    const int off = quadActOffset(sliced);
    checkQuadSliceRange(sliced, off, 0, kQuadActMax, "activation");
    const std::size_t kk = sliced.rows();
    const std::size_t n = sliced.cols();
    const std::size_t levels = sliced.levels();
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t n_groups = n / uv;
    const std::size_t kq = quadCount(kk);
    const std::size_t pw = 4 * uv;
    std::vector<std::uint8_t> out(levels * n_groups * kq * pw, 0);
    for (std::size_t l = 0; l < levels; ++l) {
        const Slice *src = sliced.planes[l].data.data().data();
        const bool is_ho = l + 1 == levels;
        parallelFor(0, n_groups, [&](std::size_t b, std::size_t e, int) {
            for (std::size_t ng = b; ng < e; ++ng) {
                std::uint8_t *dst =
                    out.data() + (l * n_groups + ng) * kq * pw;
                for (std::size_t k = 0; k < kk; ++k) {
                    // A compressed vector keeps zero slices.
                    const int keep =
                        !(is_ho && ho_mask && (*ho_mask)(k, ng) != 0);
                    const Slice *row = src + k * n + ng * uv;
                    std::uint8_t *cell = dst + (k >> 2) * pw + (k & 3);
                    for (std::size_t j = 0; j < uv; ++j)
                        cell[4 * j] =
                            static_cast<std::uint8_t>(keep * row[j] + off);
                }
            }
        });
    }
    return out;
}

/**
 * Pack one m-band's v rows of every weight slice plane into the quad
 * layout: wq[(l * kq + q) * 4v + 4i + s] = plane_l(mg*v + i, 4q + s),
 * tail steps past kk zero. Reuses the vector's storage across bands
 * (assign, not reallocate).
 */
inline void
packWeightBandQuad(const SlicedMatrix &w, std::size_t mg, int v,
                   std::vector<std::int8_t> &wq)
{
    checkQuadSliceRange(w, 0, -kQuadWeightAbsMax, kQuadWeightAbsMax,
                        "weight");
    const std::size_t kk = w.cols();
    const std::size_t levels = w.levels();
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t kq = quadCount(kk);
    const std::size_t pw = 4 * uv;
    wq.assign(levels * kq * pw, 0);
    for (std::size_t l = 0; l < levels; ++l) {
        const Slice *base = w.planes[l].data.data().data();
        std::int8_t *dst = wq.data() + l * kq * pw;
        for (std::size_t i = 0; i < uv; ++i) {
            const Slice *src = base + (mg * uv + i) * kk;
            for (std::size_t k = 0; k < kk; ++k)
                dst[(k >> 2) * pw + 4 * i + (k & 3)] = src[k];
        }
    }
}

/**
 * Per-row sums of one quad band plane (kq * 4v bytes): sums[i] is the
 * sum over every step of row i. A pass over offset activations
 * (quadActOffset) overcounts row i by offset * sums[i].
 */
inline void
quadRowSums(const std::int8_t *plane, std::size_t kq, int v,
            std::int32_t *sums)
{
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t pw = 4 * uv;
    for (std::size_t i = 0; i < uv; ++i) {
        std::int32_t sum = 0;
        for (std::size_t q = 0; q < kq; ++q)
            for (std::size_t s = 0; s < 4; ++s)
                sum += plane[q * pw + 4 * i + s];
        sums[i] = sum;
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_CORE_OPERAND_PACK_H
