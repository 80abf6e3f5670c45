/**
 * @file
 * Scalar and SSE2 pair-pass micro-kernels plus the ISA-dispatch table.
 * The AVX2/AVX-512/VNNI variants live in their own translation units
 * (pair_pass_avx2.cpp, pair_pass_avx512.cpp, pair_pass_vnni.cpp) so
 * only those files are compiled with the wider ISA flags; this file
 * stays at the build's baseline ISA and is always safe to execute.
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
pairStreamGenericScalar(const std::int8_t *wq, const std::uint8_t *xq,
                        const std::uint32_t *qs, std::size_t nq,
                        bool identity, int v, std::int32_t *pacc)
{
    const std::size_t pw = 4 * static_cast<std::size_t>(v);
    for (int i = 0; i < v; ++i)
        for (int j = 0; j < v; ++j)
            pacc[i * v + j] =
                quadDotScalar(wq + 4 * i, xq + 4 * j, qs, nq, identity, pw);
}

#if defined(__SSE2__)

/**
 * Generic-v pass, 128-bit. SSE2 has no vpmaddubsw, so the quads are
 * widened in-register: per output row the four s8 weight slices are
 * sign-extended once per quad and repeated to eight int16, and each
 * 16-byte block of four columns is zero-extended into two int16
 * halves, so one pmaddwd per half sums step pairs of two columns. The
 * two step-pair sums of a column are folded once at the end. Exact
 * int32 arithmetic.
 */
void
pairStreamGenericSse2(const std::int8_t *wq, const std::uint8_t *xq,
                      const std::uint32_t *qs, std::size_t nq,
                      bool identity, int v, std::int32_t *pacc)
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
            for (std::size_t t = 0; t < nq; ++t) {
                const std::size_t at = quadAt(qs, t, identity) * pw;
                std::int32_t wquad;
                std::memcpy(&wquad, wq + at + 4 * i, sizeof wquad);
                const __m128i w8 = _mm_cvtsi32_si128(wquad);
                __m128i w16 = _mm_srai_epi16(_mm_unpacklo_epi8(w8, w8), 8);
                w16 = _mm_unpacklo_epi64(w16, w16);
                const __m128i xb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(xq + at + 4 * j));
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
            prow[j] = quadDotScalar(wq + 4 * i, xq + 4 * j, qs, nq,
                                    identity, pw);
    }
}

#endif // __SSE2__

const PairPassKernels &
pairPassKernels(IsaLevel level)
{
    static const std::array<PairPassKernels, kIsaLevelCount> table = [] {
        std::array<PairPassKernels, kIsaLevelCount> t{};
        t[0] = {IsaLevel::Scalar,
                [](const std::int8_t *wq, const std::uint8_t *xq,
                   const std::uint32_t *qs, std::size_t nq, bool identity,
                   std::int32_t *pacc) {
                    pairStreamGenericScalar(wq, xq, qs, nq, identity, 4,
                                            pacc);
                },
                &pairStreamGenericScalar};
        // Each tier inherits the best lower-tier kernel for slots it
        // does not specialize, so every row is fully populated.
        t[1] = t[0];
        t[1].level = IsaLevel::Sse2;
#if defined(__SSE2__)
        t[1].stream4 = [](const std::int8_t *wq, const std::uint8_t *xq,
                          const std::uint32_t *qs, std::size_t nq,
                          bool identity, std::int32_t *pacc) {
            pairStreamGenericSse2(wq, xq, qs, nq, identity, 4, pacc);
        };
        t[1].streamGeneric = &pairStreamGenericSse2;
#endif
        t[2] = t[1];
        t[2].level = IsaLevel::Avx2;
#if defined(PANACEA_HAVE_AVX2_KERNELS)
        t[2].stream4 = &pairStream4Avx2;
        t[2].streamGeneric = &pairStreamGenericAvx2;
#endif
        t[3] = t[2];
        t[3].level = IsaLevel::Avx512;
#if defined(PANACEA_HAVE_AVX512_KERNELS)
        t[3].stream4 = &pairStream4Avx512;
        t[3].streamGeneric = &pairStreamGenericAvx512;
#endif
        t[4] = t[3];
        t[4].level = IsaLevel::Avx512Vnni;
#if defined(PANACEA_HAVE_VNNI_KERNELS)
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
