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

/**
 * v = 4 pair pass, 512-bit: every iteration retires EIGHT reduction
 * steps with four vpmaddwd ops (128 MACs). The four 128-bit lanes carry
 * the interleaved operands of step pairs (k0,k1)..(k6,k7); the per-lane
 * dword shuffle broadcasts one output row's weight pairs, and the final
 * cross-lane fold sums the eight steps. Exact int32 arithmetic,
 * bit-identical to the scalar path.
 */
void
pairPass4Avx512(const std::int16_t *wp, const std::int16_t *xp,
                std::size_t n, std::size_t ng_off,
                const std::uint32_t *ks, std::size_t nk, bool identity,
                std::int32_t *pacc)
{
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    const auto pair128 = [](const std::int16_t *a, const std::int16_t *b) {
        return _mm_unpacklo_epi16(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(a)),
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(b)));
    };
    std::size_t t = 0;
    for (; t + 8 <= nk; t += 8) {
        std::size_t k[8];
        for (int s = 0; s < 8; ++s)
            k[s] = identity ? t + static_cast<std::size_t>(s) : ks[t + s];
        __m512i vb = _mm512_zextsi128_si512(
            pair128(xp + k[0] * n + ng_off, xp + k[1] * n + ng_off));
        vb = _mm512_inserti32x4(
            vb, pair128(xp + k[2] * n + ng_off, xp + k[3] * n + ng_off),
            1);
        vb = _mm512_inserti32x4(
            vb, pair128(xp + k[4] * n + ng_off, xp + k[5] * n + ng_off),
            2);
        vb = _mm512_inserti32x4(
            vb, pair128(xp + k[6] * n + ng_off, xp + k[7] * n + ng_off),
            3);
        __m512i wab = _mm512_zextsi128_si512(
            pair128(wp + k[0] * 4, wp + k[1] * 4));
        wab = _mm512_inserti32x4(
            wab, pair128(wp + k[2] * 4, wp + k[3] * 4), 1);
        wab = _mm512_inserti32x4(
            wab, pair128(wp + k[4] * 4, wp + k[5] * 4), 2);
        wab = _mm512_inserti32x4(
            wab, pair128(wp + k[6] * 4, wp + k[7] * 4), 3);
        acc0 = _mm512_add_epi32(
            acc0, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_AAAA), vb));
        acc1 = _mm512_add_epi32(
            acc1, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_BBBB), vb));
        acc2 = _mm512_add_epi32(
            acc2, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_CCCC), vb));
        acc3 = _mm512_add_epi32(
            acc3, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_DDDD), vb));
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
    for (; t < nk; ++t) {
        const std::size_t k0 = identity ? t : ks[t];
        const std::int16_t *wv = wp + k0 * 4;
        const std::int16_t *xr = xp + k0 * n + ng_off;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                pacc[i * 4 + j] += static_cast<std::int32_t>(wv[i]) *
                                   static_cast<std::int32_t>(xr[j]);
    }
}

/**
 * Streaming v = 4 pass, 512-bit: two 64-byte loads plus four
 * shuffle/vpmaddubsw/vpmaddwd/add chains retire SIXTEEN reduction
 * steps per iteration over the quad layout (see PairStream4Fn). Each
 * 128-bit lane holds one quad; the per-lane dword shuffle broadcasts
 * one output row's four s8 weight slices, vpmaddubsw sums step pairs
 * of u8 x s8 products into int16 (|.| <= 1008, never saturating), and
 * vpmaddwd against ones folds the two pairs into the int32 lane. A
 * tail of < 4 quads is one more iteration over zero-masked loads.
 * Exact int32 arithmetic, bit-identical to the gather kernels over the
 * same dense steps.
 */
void
pairStream4Avx512(const std::int8_t *wq, const std::uint8_t *xq,
                  std::size_t quads, std::int32_t *pacc)
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
    std::size_t q = 0;
    for (; q + 4 <= quads; q += 4)
        step(_mm512_loadu_si512(xq + q * 16),
             _mm512_loadu_si512(wq + q * 16));
    if (q < quads) {
        const __mmask64 tail = (__mmask64{1} << ((quads - q) * 16)) - 1;
        step(_mm512_maskz_loadu_epi8(tail, xq + q * 16),
             _mm512_maskz_loadu_epi8(tail, wq + q * 16));
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
 * Runtime-v pair pass, 512-bit: like the AVX2 variant but with an
 * additional 16-wide vpmulld chunk, so a v = 16 micro-tile row is one
 * vector op. Chunk starts are bounded by v, keeping every load/store
 * inside the row; arithmetic is exact int32.
 */
void
pairPassGenericAvx512(const std::int16_t *wp, const std::int16_t *xp,
                      std::size_t n, std::size_t ng_off,
                      const std::uint32_t *ks, std::size_t nk,
                      bool identity, int v, std::int32_t *pacc)
{
    for (int e = 0; e < v * v; ++e)
        pacc[e] = 0;
    const int j16 = v & ~15; // only v = 16 has a 16-wide chunk
    const int j8 = v & ~7;
    const int j4 = v & ~3;
    const std::size_t uv = static_cast<std::size_t>(v);
    for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t k = identity ? t : ks[t];
        const std::int16_t *wv = wp + k * uv;
        const std::int16_t *xr = xp + k * n + ng_off;
        __m512i x16 = _mm512_setzero_si512();
        if (j16 > 0)
            x16 = _mm512_cvtepi16_epi32(_mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(xr)));
        __m256i x8 = _mm256_setzero_si256();
        if (j8 > j16)
            x8 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(xr + j16)));
        __m128i x4 = _mm_setzero_si128();
        if (j4 > j8)
            x4 = _mm_cvtepi16_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(xr + j8)));
        for (int i = 0; i < v; ++i) {
            const std::int32_t wsi = wv[i];
            std::int32_t *p = pacc + i * v;
            if (j16 > 0) {
                __m512i acc = _mm512_loadu_si512(p);
                acc = _mm512_add_epi32(
                    acc, _mm512_mullo_epi32(_mm512_set1_epi32(wsi), x16));
                _mm512_storeu_si512(p, acc);
            }
            if (j8 > j16) {
                __m256i acc = _mm256_loadu_si256(
                    reinterpret_cast<__m256i *>(p + j16));
                acc = _mm256_add_epi32(
                    acc, _mm256_mullo_epi32(_mm256_set1_epi32(wsi), x8));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p + j16), acc);
            }
            if (j4 > j8) {
                __m128i acc = _mm_loadu_si128(
                    reinterpret_cast<__m128i *>(p + j8));
                acc = _mm_add_epi32(
                    acc, _mm_mullo_epi32(_mm_set1_epi32(wsi), x4));
                _mm_storeu_si128(reinterpret_cast<__m128i *>(p + j8),
                                 acc);
            }
            for (int j = j4; j < v; ++j)
                p[j] += wsi * static_cast<std::int32_t>(xr[j]);
        }
    }
}

/**
 * Generic-v streaming pass, 512-bit: one quad of all v <= 16 columns
 * (4v bytes) is one zero-masked load, so per output row the whole
 * accumulator row stays in one zmm register; every quad is one
 * broadcast + vpmaddubsw + vpmaddwd(ones) + add. Exact int32
 * arithmetic, bit-identical to the gather kernels over the same dense
 * steps.
 */
void
pairStreamGenericAvx512(const std::int8_t *wq, const std::uint8_t *xq,
                        std::size_t quads, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    const __mmask64 cols = v == 16 ? ~__mmask64{0}
                                   : (__mmask64{1} << pw) - 1;
    const __mmask16 lanes = static_cast<__mmask16>((1u << v) - 1);
    const __m512i ones = _mm512_set1_epi16(1);
    for (int i = 0; i < v; ++i) {
        __m512i acc = _mm512_setzero_si512();
        for (std::size_t q = 0; q < quads; ++q) {
            std::int32_t wquad;
            __builtin_memcpy(&wquad, wq + q * pw + 4 * i, sizeof wquad);
            acc = _mm512_add_epi32(
                acc, _mm512_madd_epi16(
                         _mm512_maddubs_epi16(
                             _mm512_maskz_loadu_epi8(cols, xq + q * pw),
                             _mm512_set1_epi32(wquad)),
                         ones));
        }
        _mm512_mask_storeu_epi32(pacc + i * v, lanes, acc);
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_HAVE_AVX512_KERNELS
