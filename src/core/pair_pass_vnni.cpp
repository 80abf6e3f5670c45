/**
 * @file
 * AVX512-VNNI pair-pass micro-kernels. Identical data movement to the
 * AVX-512 variants (pair_pass_avx512.cpp), but every multiply-add
 * chain is one instruction: the gather pass's madd+add pair is one
 * vpdpwssd (_mm512_dpwssd_epi32), the quad stream's
 * maddubs+madd+add triple one vpdpbusd (_mm512_dpbusd_epi32). Both
 * are the non-saturating forms - each dword lane wraps mod 2^32
 * exactly like the sequences they replace - so outputs stay
 * bit-identical to every other tier. This translation unit is the
 * only one compiled with -mavx512vnni (gated on compiler support; see
 * CMakeLists.txt) and its symbols are only reachable through the
 * dispatch table after a cpuid + xgetbv check. The gather tails use
 * plain AVX-512/SSE madd+add (bit-identical), and the quad streams use
 * vpdpbusd (u8 x s8, four steps per lane; see core/pair_pass.h) with
 * zero-masked 512-bit loads for their tails, so the TU needs no
 * AVX512VL.
 */

#include "core/pair_pass.h"

#if defined(PANACEA_HAVE_VNNI_KERNELS)

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
 * v = 4 pair pass, 512-bit VNNI: same eight-steps-per-iteration
 * schedule as pairPass4Avx512, but the four madd+add accumulates are
 * four vpdpwssd ops. Exact int32 arithmetic, bit-identical to the
 * scalar path.
 */
void
pairPass4Vnni(const std::int16_t *wp, const std::int16_t *xp,
              std::size_t n, std::size_t ng_off, const std::uint32_t *ks,
              std::size_t nk, bool identity, std::int32_t *pacc)
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
        acc0 = _mm512_dpwssd_epi32(
            acc0, _mm512_shuffle_epi32(wab, _MM_PERM_AAAA), vb);
        acc1 = _mm512_dpwssd_epi32(
            acc1, _mm512_shuffle_epi32(wab, _MM_PERM_BBBB), vb);
        acc2 = _mm512_dpwssd_epi32(
            acc2, _mm512_shuffle_epi32(wab, _MM_PERM_CCCC), vb);
        acc3 = _mm512_dpwssd_epi32(
            acc3, _mm512_shuffle_epi32(wab, _MM_PERM_DDDD), vb);
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
 * Streaming v = 4 pass, 512-bit VNNI: two 64-byte loads plus four
 * shuffle/vpdpbusd pairs retire SIXTEEN reduction steps per step call
 * over the quad layout (see PairStream4Fn): each 128-bit lane holds
 * one quad, the per-lane dword shuffle broadcasts one output row's four
 * weight slices, and vpdpbusd adds the four u8 x s8 products of every
 * (row, column) lane into int32 without saturating. A tail of < 4
 * quads is one more iteration over zero-masked loads (AVX512BW), so
 * no narrower code path is needed. Bit-identical to the gather kernels
 * over the same dense steps.
 */
void
pairStream4Vnni(const std::int8_t *wq, const std::uint8_t *xq,
                std::size_t quads, std::int32_t *pacc)
{
    // Two accumulator sets, so consecutive iterations' vpdpbusd chains
    // overlap instead of waiting on each other's latency.
    __m512i acc[2][4];
    for (auto &set : acc)
        for (__m512i &a : set)
            a = _mm512_setzero_si512();
    const auto step = [](__m512i *a, __m512i xb, __m512i wb) {
        a[0] = _mm512_dpbusd_epi32(
            a[0], xb, _mm512_shuffle_epi32(wb, _MM_PERM_AAAA));
        a[1] = _mm512_dpbusd_epi32(
            a[1], xb, _mm512_shuffle_epi32(wb, _MM_PERM_BBBB));
        a[2] = _mm512_dpbusd_epi32(
            a[2], xb, _mm512_shuffle_epi32(wb, _MM_PERM_CCCC));
        a[3] = _mm512_dpbusd_epi32(
            a[3], xb, _mm512_shuffle_epi32(wb, _MM_PERM_DDDD));
    };
    std::size_t q = 0;
    for (; q + 8 <= quads; q += 8) {
        step(acc[0], _mm512_loadu_si512(xq + q * 16),
             _mm512_loadu_si512(wq + q * 16));
        step(acc[1], _mm512_loadu_si512(xq + q * 16 + 64),
             _mm512_loadu_si512(wq + q * 16 + 64));
    }
    if (q + 4 <= quads) {
        step(acc[0], _mm512_loadu_si512(xq + q * 16),
             _mm512_loadu_si512(wq + q * 16));
        q += 4;
    }
    if (q < quads) {
        const __mmask64 tail = (__mmask64{1} << ((quads - q) * 16)) - 1;
        step(acc[1], _mm512_maskz_loadu_epi8(tail, xq + q * 16),
             _mm512_maskz_loadu_epi8(tail, wq + q * 16));
    }
    const auto fold = [](__m512i a, __m512i b) {
        a = _mm512_add_epi32(a, b);
        const __m256i s = _mm256_add_epi32(
            _mm512_castsi512_si256(a), _mm512_extracti64x4_epi64(a, 1));
        return _mm_add_epi32(_mm256_castsi256_si128(s),
                             _mm256_extracti128_si256(s, 1));
    };
    for (int i = 0; i < 4; ++i)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 4 * i),
                         fold(acc[0][i], acc[1][i]));
}

/**
 * Generic-v streaming pass, 512-bit VNNI: one quad of all v <= 16
 * columns (4v bytes) is one zero-masked load, so per output row the
 * whole accumulator row stays in one zmm register and every quad is
 * one broadcast + vpdpbusd. Exact int32 arithmetic, bit-identical to
 * the gather kernels over the same dense steps.
 */
void
pairStreamGenericVnni(const std::int8_t *wq, const std::uint8_t *xq,
                      std::size_t quads, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    const __mmask64 cols = v == 16 ? ~__mmask64{0}
                                   : (__mmask64{1} << pw) - 1;
    const __mmask16 lanes = static_cast<__mmask16>((1u << v) - 1);
    const auto dot = [&](__m512i a, int i, std::size_t q) {
        std::int32_t wquad;
        __builtin_memcpy(&wquad, wq + q * pw + 4 * i, sizeof wquad);
        return _mm512_dpbusd_epi32(
            a, _mm512_maskz_loadu_epi8(cols, xq + q * pw),
            _mm512_set1_epi32(wquad));
    };
    for (int i = 0; i < v; ++i) {
        // Four independent chains hide the vpdpbusd latency.
        __m512i a0 = _mm512_setzero_si512();
        __m512i a1 = _mm512_setzero_si512();
        __m512i a2 = _mm512_setzero_si512();
        __m512i a3 = _mm512_setzero_si512();
        std::size_t q = 0;
        for (; q + 4 <= quads; q += 4) {
            a0 = dot(a0, i, q);
            a1 = dot(a1, i, q + 1);
            a2 = dot(a2, i, q + 2);
            a3 = dot(a3, i, q + 3);
        }
        for (; q < quads; ++q)
            a0 = dot(a0, i, q);
        const __m512i acc = _mm512_add_epi32(_mm512_add_epi32(a0, a1),
                                             _mm512_add_epi32(a2, a3));
        _mm512_mask_storeu_epi32(pacc + i * v, lanes, acc);
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_HAVE_VNNI_KERNELS
