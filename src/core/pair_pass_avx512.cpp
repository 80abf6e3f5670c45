/**
 * @file
 * AVX-512 (F + BW) pair-pass micro-kernels. This translation unit is
 * the only one compiled with -mavx512f -mavx512bw (gated on compiler
 * support; see CMakeLists.txt), and its symbols are only reachable
 * through the dispatch table after a cpuid + xgetbv check, so the
 * binary stays runnable on narrower hosts.
 */

#include "core/pair_pass.h"

#if defined(PANACEA_HAVE_AVX512_KERNELS)

#include <immintrin.h>

// GCC's unmasked AVX-512 wrappers (_mm512_shuffle_epi32,
// _mm512_inserti32x4, ...) pass _mm512_undefined_epi32() as the
// masked-out source operand, tripping -Wmaybe-uninitialized at every
// inline site (GCC PR 105593). The lanes are fully overwritten; the
// warning is a false positive, suppressed for this TU only.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace panacea {
namespace detail {

namespace {

/**
 * Listed v = 4 quads q[0..cnt) (cnt <= 4) of an operand in the 128-bit
 * lanes of one zmm; lanes past cnt are zero and their memory is never
 * read.
 */
template <typename T>
__m512i
listedQuads(const T *base, const std::uint32_t *q, std::size_t cnt)
{
    const auto at = [&](std::size_t s) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(
            base + static_cast<std::size_t>(q[s]) * 16));
    };
    __m512i r = _mm512_zextsi128_si512(at(0));
    if (cnt > 1)
        r = _mm512_inserti32x4(r, at(1), 1);
    if (cnt > 2)
        r = _mm512_inserti32x4(r, at(2), 2);
    if (cnt > 3)
        r = _mm512_inserti32x4(r, at(3), 3);
    return r;
}

} // namespace

/**
 * v = 4 pass, 512-bit: each step feeds four quads per operand (one
 * 64-byte load when streaming, four 16-byte loads when listed) to four
 * shuffle/vpmaddubsw/vpmaddwd/add chains, retiring SIXTEEN reduction
 * steps. Each 128-bit lane holds one quad; the per-lane dword shuffle
 * broadcasts one output row's four s8 weight slices, vpmaddubsw sums
 * step pairs of u8 x s8 products into int16 (|.| <= 1008, never
 * saturating), and vpmaddwd against ones folds the two pairs into the
 * int32 lane. A streamed tail of < 4 quads is one more step over
 * zero-masked loads. Exact int32 arithmetic.
 */
void
pairStream4Avx512(const std::int8_t *wq, const std::uint8_t *xq,
                  const std::uint32_t *qs, std::size_t nq, bool identity,
                  std::int32_t *pacc)
{
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    const __m512i ones = _mm512_set1_epi16(1);
    const auto dot = [&](__m512i xb, __m512i wb) {
        return _mm512_madd_epi16(_mm512_maddubs_epi16(xb, wb), ones);
    };
    const auto step = [&](__m512i xb, __m512i wb) {
        acc0 = _mm512_add_epi32(
            acc0, dot(xb, _mm512_shuffle_epi32(wb, _MM_PERM_AAAA)));
        acc1 = _mm512_add_epi32(
            acc1, dot(xb, _mm512_shuffle_epi32(wb, _MM_PERM_BBBB)));
        acc2 = _mm512_add_epi32(
            acc2, dot(xb, _mm512_shuffle_epi32(wb, _MM_PERM_CCCC)));
        acc3 = _mm512_add_epi32(
            acc3, dot(xb, _mm512_shuffle_epi32(wb, _MM_PERM_DDDD)));
    };
    std::size_t t = 0;
    if (identity) {
        for (; t + 4 <= nq; t += 4)
            step(_mm512_loadu_si512(xq + t * 16),
                 _mm512_loadu_si512(wq + t * 16));
        if (t < nq) {
            const __mmask64 tail = (__mmask64{1} << ((nq - t) * 16)) - 1;
            step(_mm512_maskz_loadu_epi8(tail, xq + t * 16),
                 _mm512_maskz_loadu_epi8(tail, wq + t * 16));
        }
    } else {
        for (; t + 4 <= nq; t += 4)
            step(listedQuads(xq, qs + t, 4), listedQuads(wq, qs + t, 4));
        if (t < nq)
            step(listedQuads(xq, qs + t, nq - t),
                 listedQuads(wq, qs + t, nq - t));
    }
    const auto fold = [](__m512i a) {
        const __m256i s = _mm256_add_epi32(
            _mm512_castsi512_si256(a), _mm512_extracti64x4_epi64(a, 1));
        return _mm_add_epi32(_mm256_castsi256_si128(s),
                             _mm256_extracti128_si256(s, 1));
    };
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 0), fold(acc0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 4), fold(acc1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 8), fold(acc2));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 12), fold(acc3));
}

/**
 * Generic-v pass, 512-bit: one quad of all v <= 16 columns (4v bytes)
 * is one zero-masked load, so per output row the whole accumulator row
 * stays in one zmm register; every visited quad is one broadcast +
 * vpmaddubsw + vpmaddwd(ones) + add. Exact int32 arithmetic.
 */
void
pairStreamGenericAvx512(const std::int8_t *wq, const std::uint8_t *xq,
                        const std::uint32_t *qs, std::size_t nq,
                        bool identity, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    const __mmask64 cols = v == 16 ? ~__mmask64{0}
                                   : (__mmask64{1} << pw) - 1;
    const __mmask16 lanes = static_cast<__mmask16>((1u << v) - 1);
    const __m512i ones = _mm512_set1_epi16(1);
    for (int i = 0; i < v; ++i) {
        __m512i acc = _mm512_setzero_si512();
        for (std::size_t t = 0; t < nq; ++t) {
            const std::size_t at = quadAt(qs, t, identity) * pw;
            std::int32_t wquad;
            __builtin_memcpy(&wquad, wq + at + 4 * i, sizeof wquad);
            acc = _mm512_add_epi32(
                acc, _mm512_madd_epi16(
                         _mm512_maddubs_epi16(
                             _mm512_maskz_loadu_epi8(cols, xq + at),
                             _mm512_set1_epi32(wquad)),
                         ones));
        }
        _mm512_mask_storeu_epi32(pacc + i * v, lanes, acc);
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_HAVE_AVX512_KERNELS
