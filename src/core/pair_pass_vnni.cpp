/**
 * @file
 * AVX512-VNNI pair-pass micro-kernels. Identical data movement to the
 * AVX-512 variants (pair_pass_avx512.cpp), but every quad's
 * maddubs+madd+add triple is one vpdpbusd (_mm512_dpbusd_epi32), the
 * non-saturating form: each dword lane wraps mod 2^32 exactly like the
 * sequence it replaces, so outputs stay bit-identical to every other
 * tier. Streamed tails use zero-masked 512-bit loads and listed quads
 * are inserted lane by lane, so the TU needs no AVX512VL. It is the
 * only one compiled with -mavx512vnni (gated on compiler support; see
 * CMakeLists.txt) and its symbols are only reachable through the
 * dispatch table after a cpuid + xgetbv check.
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
 * v = 4 pass, 512-bit VNNI: each step feeds four quads per operand to
 * four shuffle/vpdpbusd pairs, retiring SIXTEEN reduction steps: each
 * 128-bit lane holds one quad, the per-lane dword shuffle broadcasts
 * one output row's four weight slices, and vpdpbusd adds the four
 * u8 x s8 products of every (row, column) lane into int32 without
 * saturating. Consecutive steps alternate between two accumulator sets
 * so their vpdpbusd chains overlap. A streamed tail of < 4 quads is
 * one more step over zero-masked loads (AVX512BW).
 */
void
pairStream4Vnni(const std::int8_t *wq, const std::uint8_t *xq,
                const std::uint32_t *qs, std::size_t nq, bool identity,
                std::int32_t *pacc)
{
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
    std::size_t t = 0;
    if (identity) {
        for (; t + 8 <= nq; t += 8) {
            step(acc[0], _mm512_loadu_si512(xq + t * 16),
                 _mm512_loadu_si512(wq + t * 16));
            step(acc[1], _mm512_loadu_si512(xq + t * 16 + 64),
                 _mm512_loadu_si512(wq + t * 16 + 64));
        }
        if (t + 4 <= nq) {
            step(acc[0], _mm512_loadu_si512(xq + t * 16),
                 _mm512_loadu_si512(wq + t * 16));
            t += 4;
        }
        if (t < nq) {
            const __mmask64 tail = (__mmask64{1} << ((nq - t) * 16)) - 1;
            step(acc[1], _mm512_maskz_loadu_epi8(tail, xq + t * 16),
                 _mm512_maskz_loadu_epi8(tail, wq + t * 16));
        }
    } else {
        for (; t + 8 <= nq; t += 8) {
            step(acc[0], listedQuads(xq, qs + t, 4),
                 listedQuads(wq, qs + t, 4));
            step(acc[1], listedQuads(xq, qs + t + 4, 4),
                 listedQuads(wq, qs + t + 4, 4));
        }
        if (t + 4 <= nq) {
            step(acc[0], listedQuads(xq, qs + t, 4),
                 listedQuads(wq, qs + t, 4));
            t += 4;
        }
        if (t < nq)
            step(acc[1], listedQuads(xq, qs + t, nq - t),
                 listedQuads(wq, qs + t, nq - t));
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
 * Generic-v pass, 512-bit VNNI: one quad of all v <= 16 columns (4v
 * bytes) is one zero-masked load, so per output row the whole
 * accumulator row stays in one zmm register and every visited quad is
 * one broadcast + vpdpbusd. Exact int32 arithmetic.
 */
void
pairStreamGenericVnni(const std::int8_t *wq, const std::uint8_t *xq,
                      const std::uint32_t *qs, std::size_t nq,
                      bool identity, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    const __mmask64 cols = v == 16 ? ~__mmask64{0}
                                   : (__mmask64{1} << pw) - 1;
    const __mmask16 lanes = static_cast<__mmask16>((1u << v) - 1);
    const auto dot = [&](__m512i a, int i, std::size_t t) {
        const std::size_t at = quadAt(qs, t, identity) * pw;
        std::int32_t wquad;
        __builtin_memcpy(&wquad, wq + at + 4 * i, sizeof wquad);
        return _mm512_dpbusd_epi32(
            a, _mm512_maskz_loadu_epi8(cols, xq + at),
            _mm512_set1_epi32(wquad));
    };
    for (int i = 0; i < v; ++i) {
        // Four independent chains hide the vpdpbusd latency.
        __m512i a0 = _mm512_setzero_si512();
        __m512i a1 = _mm512_setzero_si512();
        __m512i a2 = _mm512_setzero_si512();
        __m512i a3 = _mm512_setzero_si512();
        std::size_t t = 0;
        for (; t + 4 <= nq; t += 4) {
            a0 = dot(a0, i, t);
            a1 = dot(a1, i, t + 1);
            a2 = dot(a2, i, t + 2);
            a3 = dot(a3, i, t + 3);
        }
        for (; t < nq; ++t)
            a0 = dot(a0, i, t);
        const __m512i acc = _mm512_add_epi32(_mm512_add_epi32(a0, a1),
                                             _mm512_add_epi32(a2, a3));
        _mm512_mask_storeu_epi32(pacc + i * v, lanes, acc);
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_HAVE_VNNI_KERNELS
