/**
 * @file
 * Scalar and SSE2 pair-pass micro-kernels plus the ISA-dispatch table.
 * The AVX2/AVX-512/VNNI variants live in their own translation units
 * (pair_pass_avx2.cpp, pair_pass_avx512.cpp, pair_pass_vnni.cpp) so
 * only those files are compiled with the wider ISA flags; this file stays at the build's
 * baseline ISA and is always safe to execute.
 */

#include "core/pair_pass.h"

#include <array>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace panacea {
namespace detail {

void
pairPassGenericScalar(const std::int16_t *wp, const std::int16_t *xp,
                      std::size_t n, std::size_t ng_off,
                      const std::uint32_t *ks, std::size_t nk,
                      bool identity, int v, std::int32_t *pacc)
{
    for (int e = 0; e < v * v; ++e)
        pacc[e] = 0;
    for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t k = identity ? t : ks[t];
        const std::int16_t *wv = wp + k * static_cast<std::size_t>(v);
        const std::int16_t *xr = xp + k * n + ng_off;
        for (int i = 0; i < v; ++i) {
            const std::int32_t wsi = wv[i];
            std::int32_t *p = pacc + i * v;
            for (int j = 0; j < v; ++j)
                p[j] += wsi * static_cast<std::int32_t>(xr[j]);
        }
    }
}

void
pairPass4Scalar(const std::int16_t *wp, const std::int16_t *xp,
                std::size_t n, std::size_t ng_off,
                const std::uint32_t *ks, std::size_t nk, bool identity,
                std::int32_t *pacc)
{
    pairPassGenericScalar(wp, xp, n, ng_off, ks, nk, identity, 4, pacc);
}

#if defined(__SSE2__)

/**
 * v = 4 pair pass: the 4x4 int32 micro-tile lives in four xmm
 * accumulators; every iteration retires TWO reduction steps with four
 * pmaddwd ops (32 MACs). Interleaving the two steps' operands
 * (punpcklwd) makes each pmaddwd lane the two-step partial dot product
 * of one (i, j) output element - exact int32 arithmetic, identical to
 * the scalar path.
 */
void
pairPass4Sse2(const std::int16_t *wp, const std::int16_t *xp,
              std::size_t n, std::size_t ng_off, const std::uint32_t *ks,
              std::size_t nk, bool identity, std::int32_t *pacc)
{
    __m128i acc0 = _mm_setzero_si128();
    __m128i acc1 = _mm_setzero_si128();
    __m128i acc2 = _mm_setzero_si128();
    __m128i acc3 = _mm_setzero_si128();
    std::size_t t = 0;
    for (; t + 2 <= nk; t += 2) {
        const std::size_t k0 = identity ? t : ks[t];
        const std::size_t k1 = identity ? t + 1 : ks[t + 1];
        const __m128i xr0 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(xp + k0 * n + ng_off));
        const __m128i xr1 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(xp + k1 * n + ng_off));
        const __m128i vb = _mm_unpacklo_epi16(xr0, xr1);
        const __m128i wv0 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(wp + k0 * 4));
        const __m128i wv1 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(wp + k1 * 4));
        const __m128i wab = _mm_unpacklo_epi16(wv0, wv1);
        acc0 = _mm_add_epi32(
            acc0, _mm_madd_epi16(_mm_shuffle_epi32(wab, 0x00), vb));
        acc1 = _mm_add_epi32(
            acc1, _mm_madd_epi16(_mm_shuffle_epi32(wab, 0x55), vb));
        acc2 = _mm_add_epi32(
            acc2, _mm_madd_epi16(_mm_shuffle_epi32(wab, 0xAA), vb));
        acc3 = _mm_add_epi32(
            acc3, _mm_madd_epi16(_mm_shuffle_epi32(wab, 0xFF), vb));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 0), acc0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 4), acc1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 8), acc2);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 12), acc3);
    if (t < nk) {
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
 * Generic-v streaming pass, 128-bit: operands arrive in the quad layout
 * (PairStreamGenericFn in core/pair_pass.h), 4v bytes per quad. SSE2
 * has no vpmaddubsw, so the quads are widened in-register: per output
 * row the four s8 weight slices are sign-extended once per quad and
 * repeated to eight int16, and each 16-byte block of four columns is
 * zero-extended into two int16 halves, so one pmaddwd per half sums
 * step pairs of two columns. The two step-pair sums of a column are
 * folded once at the end - no skip-list indirection, no per-step
 * interleaving. Exact int32 arithmetic, bit-identical to the gather
 * kernels over the same dense steps.
 */
void
pairStreamGenericSse2(const std::int8_t *wq, const std::uint8_t *xq,
                      std::size_t quads, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    const int j4 = v & ~3; // widest multiple-of-4 prefix of the columns
    const __m128i zero = _mm_setzero_si128();
    for (int i = 0; i < v; ++i) {
        std::int32_t *prow = pacc + i * v;
        for (int j = 0; j < j4; j += 4) {
            // lo: steps {01, 23} of columns j, j+1; hi: of j+2, j+3.
            __m128i lo = _mm_setzero_si128();
            __m128i hi = _mm_setzero_si128();
            for (std::size_t q = 0; q < quads; ++q) {
                std::int32_t wquad;
                std::memcpy(&wquad, wq + q * pw + 4 * i, sizeof wquad);
                const __m128i w8 = _mm_cvtsi32_si128(wquad);
                __m128i w16 = _mm_srai_epi16(_mm_unpacklo_epi8(w8, w8), 8);
                w16 = _mm_unpacklo_epi64(w16, w16);
                const __m128i xb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(xq + q * pw +
                                                      4 * j));
                lo = _mm_add_epi32(
                    lo, _mm_madd_epi16(_mm_unpacklo_epi8(xb, zero), w16));
                hi = _mm_add_epi32(
                    hi, _mm_madd_epi16(_mm_unpackhi_epi8(xb, zero), w16));
            }
            const __m128 lf = _mm_castsi128_ps(lo);
            const __m128 hf = _mm_castsi128_ps(hi);
            const __m128i even = _mm_castps_si128(
                _mm_shuffle_ps(lf, hf, _MM_SHUFFLE(2, 0, 2, 0)));
            const __m128i odd = _mm_castps_si128(
                _mm_shuffle_ps(lf, hf, _MM_SHUFFLE(3, 1, 3, 1)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(prow + j),
                             _mm_add_epi32(even, odd));
        }
        for (int j = j4; j < v; ++j)
            prow[j] = quadDotScalar(wq + 4 * i, xq + 4 * j, quads, pw);
    }
}

#endif // __SSE2__

const PairPassKernels &
pairPassKernels(IsaLevel level)
{
    static const std::array<PairPassKernels, kIsaLevelCount> table = [] {
        std::array<PairPassKernels, kIsaLevelCount> t{};
        t[0] = {IsaLevel::Scalar, &pairPass4Scalar,
                &pairPassGenericScalar};
        // Each tier inherits the best lower-tier kernel for slots it
        // does not specialize, so every row is fully populated.
        t[1] = t[0];
        t[1].level = IsaLevel::Sse2;
#if defined(__SSE2__)
        t[1].pass4 = &pairPass4Sse2;
        t[1].streamGeneric = &pairStreamGenericSse2;
#endif
        t[2] = t[1];
        t[2].level = IsaLevel::Avx2;
#if defined(PANACEA_HAVE_AVX2_KERNELS)
        t[2].pass4 = &pairPass4Avx2;
        t[2].passGeneric = &pairPassGenericAvx2;
        t[2].stream4 = &pairStream4Avx2;
        t[2].streamGeneric = &pairStreamGenericAvx2;
#endif
        t[3] = t[2];
        t[3].level = IsaLevel::Avx512;
#if defined(PANACEA_HAVE_AVX512_KERNELS)
        t[3].pass4 = &pairPass4Avx512;
        t[3].passGeneric = &pairPassGenericAvx512;
        t[3].stream4 = &pairStream4Avx512;
        t[3].streamGeneric = &pairStreamGenericAvx512;
#endif
        t[4] = t[3];
        t[4].level = IsaLevel::Avx512Vnni;
#if defined(PANACEA_HAVE_VNNI_KERNELS)
        // passGeneric is inherited: its inner loop is vpmulld-bound
        // (no madd+add pair to fuse), so the AVX-512 kernel is already
        // optimal for the VNNI tier.
        t[4].pass4 = &pairPass4Vnni;
        t[4].stream4 = &pairStream4Vnni;
        t[4].streamGeneric = &pairStreamGenericVnni;
#endif
        return t;
    }();

    const IsaLevel cap = supportedIsaCap();
    if (level > cap)
        level = cap;
    return table[static_cast<std::size_t>(level)];
}

} // namespace detail
} // namespace panacea
