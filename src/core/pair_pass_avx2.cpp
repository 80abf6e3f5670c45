/**
 * @file
 * AVX2 pair-pass micro-kernels. This translation unit is the only one
 * compiled with -mavx2 (gated on compiler support; see CMakeLists.txt),
 * and its symbols are only reachable through the dispatch table after
 * a cpuid check, so the binary stays runnable on SSE2-only hosts.
 */

#include "core/pair_pass.h"

#if defined(PANACEA_HAVE_AVX2_KERNELS)

#include <immintrin.h>

namespace panacea {
namespace detail {

namespace {

/** The 16-byte v = 4 quad q of an operand. */
template <typename T>
__m128i
quad16(const T *base, std::size_t q)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(base + q * 16));
}

} // namespace

/**
 * v = 4 pass, 256-bit: each iteration feeds two quads per operand
 * (one 32-byte load when streaming, two 16-byte loads when listed) to
 * four shuffle/vpmaddubsw/vpmaddwd/add chains, retiring EIGHT
 * reduction steps. Each 128-bit lane holds one quad; the per-lane
 * dword shuffle broadcasts one output row's four s8 weight slices,
 * vpmaddubsw sums step pairs of u8 x s8 products into int16 (|.| <=
 * 1008, never saturating) and vpmaddwd against ones folds the two
 * pairs into the int32 lane. Exact int32 arithmetic.
 */
void
pairStream4Avx2(const std::int8_t *wq, const std::uint8_t *xq,
                const std::uint32_t *qs, std::size_t nq, bool identity,
                std::int32_t *pacc)
{
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    const __m256i ones = _mm256_set1_epi16(1);
    const auto step = [&](__m256i xb, __m256i wb) {
        const auto dot = [&](__m256i w) {
            return _mm256_madd_epi16(_mm256_maddubs_epi16(xb, w), ones);
        };
        acc0 = _mm256_add_epi32(acc0, dot(_mm256_shuffle_epi32(wb, 0x00)));
        acc1 = _mm256_add_epi32(acc1, dot(_mm256_shuffle_epi32(wb, 0x55)));
        acc2 = _mm256_add_epi32(acc2, dot(_mm256_shuffle_epi32(wb, 0xAA)));
        acc3 = _mm256_add_epi32(acc3, dot(_mm256_shuffle_epi32(wb, 0xFF)));
    };
    std::size_t t = 0;
    if (identity) {
        for (; t + 2 <= nq; t += 2)
            step(_mm256_loadu_si256(
                     reinterpret_cast<const __m256i *>(xq + t * 16)),
                 _mm256_loadu_si256(
                     reinterpret_cast<const __m256i *>(wq + t * 16)));
    } else {
        for (; t + 2 <= nq; t += 2)
            step(_mm256_set_m128i(quad16(xq, qs[t + 1]), quad16(xq, qs[t])),
                 _mm256_set_m128i(quad16(wq, qs[t + 1]), quad16(wq, qs[t])));
    }
    const auto fold = [](__m256i a) {
        return _mm_add_epi32(_mm256_castsi256_si128(a),
                             _mm256_extracti128_si256(a, 1));
    };
    __m128i r0 = fold(acc0);
    __m128i r1 = fold(acc1);
    __m128i r2 = fold(acc2);
    __m128i r3 = fold(acc3);
    if (t < nq) { // odd trailing quad: one 128-bit step
        const std::size_t q = quadAt(qs, t, identity);
        const __m128i xb = quad16(xq, q);
        const __m128i wb = quad16(wq, q);
        const __m128i ones128 = _mm256_castsi256_si128(ones);
        const auto dot128 = [&](__m128i w) {
            return _mm_madd_epi16(_mm_maddubs_epi16(xb, w), ones128);
        };
        r0 = _mm_add_epi32(r0, dot128(_mm_shuffle_epi32(wb, 0x00)));
        r1 = _mm_add_epi32(r1, dot128(_mm_shuffle_epi32(wb, 0x55)));
        r2 = _mm_add_epi32(r2, dot128(_mm_shuffle_epi32(wb, 0xAA)));
        r3 = _mm_add_epi32(r3, dot128(_mm_shuffle_epi32(wb, 0xFF)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 0), r0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 4), r1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 8), r2);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 12), r3);
}

/**
 * Generic-v pass, 256-bit: the runtime-v counterpart of
 * pairStream4Avx2, 4v bytes per quad. Per output row an 8-column
 * accumulator block stays in one ymm register across all visited
 * quads; each quad broadcasts the row's four s8 weight slices and
 * retires FOUR reduction steps for eight columns with one vpmaddubsw +
 * vpmaddwd(ones). Narrower column remainders fall to the 128-bit and
 * scalar tails. Exact int32 arithmetic.
 */
void
pairStreamGenericAvx2(const std::int8_t *wq, const std::uint8_t *xq,
                      const std::uint32_t *qs, std::size_t nq,
                      bool identity, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    const int j8 = v & ~7; // widest multiple-of-8 prefix of the columns
    const int j4 = v & ~3;
    const __m256i ones = _mm256_set1_epi16(1);
    const auto wquad = [&](std::size_t at, int i) {
        std::int32_t w;
        __builtin_memcpy(&w, wq + at + 4 * i, sizeof w);
        return w;
    };
    for (int i = 0; i < v; ++i) {
        std::int32_t *prow = pacc + i * v;
        for (int j = 0; j < j8; j += 8) {
            __m256i acc = _mm256_setzero_si256();
            for (std::size_t t = 0; t < nq; ++t) {
                const std::size_t at = quadAt(qs, t, identity) * pw;
                const __m256i xb = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(xq + at + 4 * j));
                acc = _mm256_add_epi32(
                    acc, _mm256_madd_epi16(
                             _mm256_maddubs_epi16(
                                 xb, _mm256_set1_epi32(wquad(at, i))),
                             ones));
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(prow + j),
                                acc);
        }
        if (j4 > j8) {
            __m128i acc = _mm_setzero_si128();
            for (std::size_t t = 0; t < nq; ++t) {
                const std::size_t at = quadAt(qs, t, identity) * pw;
                const __m128i xb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(xq + at + 4 * j8));
                acc = _mm_add_epi32(
                    acc, _mm_madd_epi16(
                             _mm_maddubs_epi16(
                                 xb, _mm_set1_epi32(wquad(at, i))),
                             _mm256_castsi256_si128(ones)));
            }
            _mm_storeu_si128(reinterpret_cast<__m128i *>(prow + j8),
                             acc);
        }
        for (int j = j4; j < v; ++j)
            prow[j] = quadDotScalar(wq + 4 * i, xq + 4 * j, qs, nq,
                                    identity, pw);
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_HAVE_AVX2_KERNELS
