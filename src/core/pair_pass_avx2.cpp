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

/**
 * v = 4 pair pass, 256-bit: every iteration retires FOUR reduction
 * steps with four vpmaddwd ops (64 MACs). The two 128-bit lanes carry
 * the interleaved operands of steps (k0,k1) and (k2,k3); the per-lane
 * dword shuffle broadcasts one output row's weight pairs, so each
 * vpmaddwd lane is a two-step partial dot product and the final
 * cross-lane add folds the four steps together. Exact int32 arithmetic,
 * bit-identical to the scalar path.
 */
void
pairPass4Avx2(const std::int16_t *wp, const std::int16_t *xp,
              std::size_t n, std::size_t ng_off, const std::uint32_t *ks,
              std::size_t nk, bool identity, std::int32_t *pacc)
{
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    std::size_t t = 0;
    for (; t + 4 <= nk; t += 4) {
        const std::size_t k0 = identity ? t : ks[t];
        const std::size_t k1 = identity ? t + 1 : ks[t + 1];
        const std::size_t k2 = identity ? t + 2 : ks[t + 2];
        const std::size_t k3 = identity ? t + 3 : ks[t + 3];
        const __m128i xlo = _mm_unpacklo_epi16(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                xp + k0 * n + ng_off)),
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                xp + k1 * n + ng_off)));
        const __m128i xhi = _mm_unpacklo_epi16(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                xp + k2 * n + ng_off)),
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                xp + k3 * n + ng_off)));
        const __m256i vb = _mm256_set_m128i(xhi, xlo);
        const __m128i wlo = _mm_unpacklo_epi16(
            _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(wp + k0 * 4)),
            _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(wp + k1 * 4)));
        const __m128i whi = _mm_unpacklo_epi16(
            _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(wp + k2 * 4)),
            _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(wp + k3 * 4)));
        const __m256i wab = _mm256_set_m128i(whi, wlo);
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(_mm256_shuffle_epi32(wab, 0x00), vb));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(_mm256_shuffle_epi32(wab, 0x55), vb));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(_mm256_shuffle_epi32(wab, 0xAA), vb));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(_mm256_shuffle_epi32(wab, 0xFF), vb));
    }
    const auto fold = [](__m256i a) {
        return _mm_add_epi32(_mm256_castsi256_si128(a),
                             _mm256_extracti128_si256(a, 1));
    };
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 0), fold(acc0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 4), fold(acc1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 8), fold(acc2));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 12), fold(acc3));
    for (; t < nk; ++t) {
        const std::size_t k = identity ? t : ks[t];
        const std::int16_t *wv = wp + k * 4;
        const std::int16_t *xr = xp + k * n + ng_off;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                pacc[i * 4 + j] += static_cast<std::int32_t>(wv[i]) *
                                   static_cast<std::int32_t>(xr[j]);
    }
}

/**
 * Streaming v = 4 pass, 256-bit: operands arrive in the quad layout
 * (see PairStream4Fn in core/pair_pass.h), so every iteration is two
 * 32-byte loads plus four shuffle/vpmaddubsw/vpmaddwd/add chains
 * retiring EIGHT reduction steps - no per-step address computation,
 * interleaving or lane inserts. Each 128-bit lane holds one quad; the
 * per-lane dword shuffle broadcasts one output row's four s8 weight
 * slices, vpmaddubsw sums step pairs of u8 x s8 products into int16
 * (|.| <= 1008, never saturating) and vpmaddwd against ones folds the
 * two pairs into the int32 lane. Exact int32 arithmetic, bit-identical
 * to the gather kernels over the same dense steps.
 */
void
pairStream4Avx2(const std::int8_t *wq, const std::uint8_t *xq,
                std::size_t quads, std::int32_t *pacc)
{
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    const __m256i ones = _mm256_set1_epi16(1);
    const auto dot = [&](__m256i xb, __m256i wb) {
        return _mm256_madd_epi16(_mm256_maddubs_epi16(xb, wb), ones);
    };
    std::size_t q = 0;
    for (; q + 2 <= quads; q += 2) {
        const __m256i xb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(xq + q * 16));
        const __m256i wb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(wq + q * 16));
        acc0 = _mm256_add_epi32(acc0,
                                dot(xb, _mm256_shuffle_epi32(wb, 0x00)));
        acc1 = _mm256_add_epi32(acc1,
                                dot(xb, _mm256_shuffle_epi32(wb, 0x55)));
        acc2 = _mm256_add_epi32(acc2,
                                dot(xb, _mm256_shuffle_epi32(wb, 0xAA)));
        acc3 = _mm256_add_epi32(acc3,
                                dot(xb, _mm256_shuffle_epi32(wb, 0xFF)));
    }
    const auto fold = [](__m256i a) {
        return _mm_add_epi32(_mm256_castsi256_si128(a),
                             _mm256_extracti128_si256(a, 1));
    };
    __m128i r0 = fold(acc0);
    __m128i r1 = fold(acc1);
    __m128i r2 = fold(acc2);
    __m128i r3 = fold(acc3);
    if (q < quads) { // odd trailing quad: one 128-bit step
        const __m128i xb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(xq + q * 16));
        const __m128i wb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(wq + q * 16));
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
 * Runtime-v pair pass, 256-bit: per reduction step the activation row
 * is widened to int32 once, then each output row accumulates
 * broadcast(w_i) * x with vpmulld over 8-wide (then 4-wide) column
 * chunks and a scalar tail. All loads/stores stay inside the v-element
 * row (chunk starts are bounded by v), and the arithmetic is exact
 * int32, so results match the scalar kernel bit-for-bit.
 */
void
pairPassGenericAvx2(const std::int16_t *wp, const std::int16_t *xp,
                    std::size_t n, std::size_t ng_off,
                    const std::uint32_t *ks, std::size_t nk,
                    bool identity, int v, std::int32_t *pacc)
{
    for (int e = 0; e < v * v; ++e)
        pacc[e] = 0;
    const int j8 = v & ~7; // widest multiple-of-8 prefix of the row
    const int j4 = v & ~3;
    const std::size_t uv = static_cast<std::size_t>(v);
    __m256i x8[2];
    for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t k = identity ? t : ks[t];
        const std::int16_t *wv = wp + k * uv;
        const std::int16_t *xr = xp + k * n + ng_off;
        for (int j = 0; j < j8; j += 8)
            x8[j >> 3] = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(xr + j)));
        __m128i x4 = _mm_setzero_si128();
        if (j4 > j8)
            x4 = _mm_cvtepi16_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(xr + j8)));
        for (int i = 0; i < v; ++i) {
            const std::int32_t wsi = wv[i];
            std::int32_t *p = pacc + i * v;
            const __m256i wb = _mm256_set1_epi32(wsi);
            for (int j = 0; j < j8; j += 8) {
                __m256i acc = _mm256_loadu_si256(
                    reinterpret_cast<__m256i *>(p + j));
                acc = _mm256_add_epi32(
                    acc, _mm256_mullo_epi32(wb, x8[j >> 3]));
                _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + j),
                                    acc);
            }
            if (j4 > j8) {
                __m128i acc = _mm_loadu_si128(
                    reinterpret_cast<__m128i *>(p + j8));
                acc = _mm_add_epi32(
                    acc,
                    _mm_mullo_epi32(_mm256_castsi256_si128(wb), x4));
                _mm_storeu_si128(reinterpret_cast<__m128i *>(p + j8),
                                 acc);
            }
            for (int j = j4; j < v; ++j)
                p[j] += wsi * static_cast<std::int32_t>(xr[j]);
        }
    }
}

/**
 * Generic-v streaming pass, 256-bit: the runtime-v counterpart of
 * pairStream4Avx2 over the same quad layout, 4v bytes per quad. Per
 * output row an 8-column accumulator block stays in one ymm register
 * across all quads; each iteration broadcasts the row's four s8 weight
 * slices and retires FOUR reduction steps for eight columns with one
 * vpmaddubsw + vpmaddwd(ones). Narrower column remainders fall to the
 * 128-bit and scalar tails. Exact int32 arithmetic, bit-identical to
 * the gather kernels over the same dense steps.
 */
void
pairStreamGenericAvx2(const std::int8_t *wq, const std::uint8_t *xq,
                      std::size_t quads, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    const int j8 = v & ~7; // widest multiple-of-8 prefix of the columns
    const int j4 = v & ~3;
    const __m256i ones = _mm256_set1_epi16(1);
    for (int i = 0; i < v; ++i) {
        std::int32_t *prow = pacc + i * v;
        for (int j = 0; j < j8; j += 8) {
            __m256i acc = _mm256_setzero_si256();
            for (std::size_t q = 0; q < quads; ++q) {
                std::int32_t wquad;
                __builtin_memcpy(&wquad, wq + q * pw + 4 * i,
                                 sizeof wquad);
                const __m256i xb = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(xq + q * pw +
                                                      4 * j));
                acc = _mm256_add_epi32(
                    acc, _mm256_madd_epi16(
                             _mm256_maddubs_epi16(
                                 xb, _mm256_set1_epi32(wquad)),
                             ones));
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(prow + j),
                                acc);
        }
        if (j4 > j8) {
            __m128i acc = _mm_setzero_si128();
            for (std::size_t q = 0; q < quads; ++q) {
                std::int32_t wquad;
                __builtin_memcpy(&wquad, wq + q * pw + 4 * i,
                                 sizeof wquad);
                const __m128i xb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(xq + q * pw +
                                                      4 * j8));
                acc = _mm_add_epi32(
                    acc, _mm_madd_epi16(
                             _mm_maddubs_epi16(xb, _mm_set1_epi32(wquad)),
                             _mm256_castsi256_si128(ones)));
            }
            _mm_storeu_si128(reinterpret_cast<__m128i *>(prow + j8),
                             acc);
        }
        for (int j = j4; j < v; ++j)
            prow[j] = quadDotScalar(wq + 4 * i, xq + 4 * j, quads, pw);
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_HAVE_AVX2_KERNELS
