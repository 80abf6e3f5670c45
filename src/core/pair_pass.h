/**
 * @file
 * Internal micro-kernel interface of the bit-slice GEMM engines: the
 * "pair pass" - one branch-free sweep of a (weight-plane,
 * activation-plane) combination over the 8-bit quad operands - and the
 * runtime ISA-dispatch table that selects its widest available
 * implementation (scalar / SSE2 / AVX2 / AVX-512 / AVX512-VNNI).
 *
 * Contract shared by every variant (and relied on for cross-ISA
 * parity):
 *
 *  - Operands arrive in the QUAD layout: weight slices as s8,
 *    activation slices as u8, four consecutive reduction steps of one
 *    output row / column in four consecutive bytes. A quad of a v-wide
 *    band is 4v bytes: wq[q*4v + 4*i + s] is the weight slice of output
 *    row i at reduction step 4q+s, xq[q*4v + 4*j + s] the activation
 *    slice of output column j (tail steps past kk are zero on both
 *    operands; see quadSlicePlanes / packWeightBandQuad in
 *    core/operand_pack.h).
 *  - `qs`/`nq`/`identity` name the quads the pass visits: when
 *    `identity` is true they are 0..nq-1 and `qs` may be null (the
 *    dense stream, one wide contiguous load per operand); otherwise
 *    qs[0..nq) holds them in increasing order, and a listed iteration
 *    assembles its quads with 128-bit loads, never reading past the
 *    last listed quad. The engines list the quads that hold a dense
 *    step of the pass; the operands already zero every compressed
 *    step, so visiting any superset of those quads sums the same
 *    products.
 *  - `pacc` is the v x v row-major int32 pair accumulator. The pass
 *    OVERWRITES it with sum_q sum_s w[4q+s][i] * x[4q+s][j] (no
 *    positional shift; the caller applies `<< shift` when merging into
 *    the int64 tile).
 *  - Arithmetic must be exact. Each 32-bit lane sums the four steps of
 *    one (i, j) element (vpdpbusd, or vpmaddubsw followed by vpmaddwd
 *    against ones). Exactness rests on the slice ranges the packers
 *    enforce per operand (detail::checkQuadSliceRange in
 *    core/operand_pack.h): |w| <= 8 and 0 <= x <= 63. Headroom:
 *      - a vpmaddubsw int16 lane sums two products, |.| <= 2 * 8 * 63
 *        = 1008 < 2^15, so its saturation never engages;
 *      - a 32-bit lane gains at most 4 * 504 = 2016 per quad, and a
 *        pass sums |.| <= kk * 504 < 2^31 for kk < 2^22, so the int32
 *        lanes (vpdpbusd is the non-saturating form) stay exact.
 *    Integer addition commutes, so any vectorization order yields
 *    bit-identical results.
 *  - Signed (SBR) activation slices, which only the Sibia front end
 *    produces, are stored as x + 8; the band removes 8 * sum(w) per
 *    row (detail::quadActOffset). That correction spans the whole
 *    weight row, so it is exact for identity passes and for passes
 *    whose list comes from the weight side (every unlisted quad then
 *    has zero weights), and the band runs every other pass over signed
 *    activations unlisted.
 *
 * The AVX2/AVX-512 translation units are compiled with their ISA flags
 * only when the compiler supports them (PANACEA_HAVE_*_KERNELS);
 * pairPassKernels() additionally clamps to what the host CPU reports,
 * so dispatch is always safe.
 */

#ifndef PANACEA_CORE_PAIR_PASS_H
#define PANACEA_CORE_PAIR_PASS_H

#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

namespace panacea {
namespace detail {

/** Fixed v = 4 pass (the paper-default vector length): 16-byte quads. */
using PairStream4Fn = void (*)(const std::int8_t *wq,
                               const std::uint8_t *xq,
                               const std::uint32_t *qs, std::size_t nq,
                               bool identity, std::int32_t *pacc);

/** Runtime-v pass (1 <= v <= 16): 4v-byte quads. */
using PairStreamGenericFn = void (*)(const std::int8_t *wq,
                                     const std::uint8_t *xq,
                                     const std::uint32_t *qs,
                                     std::size_t nq, bool identity, int v,
                                     std::int32_t *pacc);

/** The t-th quad a pass visits (see the file header). */
inline std::size_t
quadAt(const std::uint32_t *qs, std::size_t t, bool identity)
{
    return identity ? t : qs[t];
}

/**
 * One (row, column) element of a pass in scalar code: the scalar tier
 * and the column tails of the generic kernels. `w` / `x` point at the
 * row's / column's four slices of quad 0; consecutive quads are
 * `stride` (= 4v) bytes apart.
 */
inline std::int32_t
quadDotScalar(const std::int8_t *w, const std::uint8_t *x,
              const std::uint32_t *qs, std::size_t nq, bool identity,
              std::size_t stride)
{
    std::int32_t sum = 0;
    for (std::size_t t = 0; t < nq; ++t) {
        const std::size_t at = quadAt(qs, t, identity) * stride;
        for (std::size_t s = 0; s < 4; ++s)
            sum += static_cast<std::int32_t>(w[at + s]) *
                   static_cast<std::int32_t>(x[at + s]);
    }
    return sum;
}

/** One row of the ISA-dispatch table; every slot is always filled. */
struct PairPassKernels
{
    IsaLevel level = IsaLevel::Scalar; ///< nominal tier of this row
    PairStream4Fn stream4 = nullptr;
    PairStreamGenericFn streamGeneric = nullptr;
};

/**
 * The dispatch table row for an ISA level, clamped to
 * min(detectedIsaLevel(), compiledIsaLevel()). A tier without its own
 * variant inherits the next-lower implementation (e.g. the SSE2 row
 * runs v = 4 on its generic kernel), so every returned row is fully
 * populated and every function pointer is runnable on this host.
 */
const PairPassKernels &pairPassKernels(IsaLevel level);

/**
 * Exactness domain of the AQS-GEMM blocked kernel (aqsGemm): its int32
 * pair accumulators stay exact while kk * max|slice product| < 2^31,
 * which kk < 2^22 guarantees (|product| <= 8 * 63; see the headroom
 * above), and its micro-tile is bounded at v <= 16. Outside it aqsGemm
 * and legacyBitsliceGemm (the band's Sibia front end) run
 * aqsGemmReference.
 */
constexpr bool
aqsBlockedKernelExact(std::size_t kk, int v)
{
    return kk < (std::size_t{1} << 22) && v <= 16;
}

// Per-ISA implementations. Declared unconditionally; the AVX2/AVX-512
// symbols are only referenced (and defined) when the matching
// PANACEA_HAVE_*_KERNELS macro is set at configure time.
void pairStreamGenericScalar(const std::int8_t *wq, const std::uint8_t *xq,
                             const std::uint32_t *qs, std::size_t nq,
                             bool identity, int v, std::int32_t *pacc);
void pairStreamGenericSse2(const std::int8_t *wq, const std::uint8_t *xq,
                           const std::uint32_t *qs, std::size_t nq,
                           bool identity, int v, std::int32_t *pacc);
void pairStream4Avx2(const std::int8_t *wq, const std::uint8_t *xq,
                     const std::uint32_t *qs, std::size_t nq, bool identity,
                     std::int32_t *pacc);
void pairStreamGenericAvx2(const std::int8_t *wq, const std::uint8_t *xq,
                           const std::uint32_t *qs, std::size_t nq,
                           bool identity, int v, std::int32_t *pacc);
void pairStream4Avx512(const std::int8_t *wq, const std::uint8_t *xq,
                       const std::uint32_t *qs, std::size_t nq,
                       bool identity, std::int32_t *pacc);
void pairStreamGenericAvx512(const std::int8_t *wq, const std::uint8_t *xq,
                             const std::uint32_t *qs, std::size_t nq,
                             bool identity, int v, std::int32_t *pacc);
void pairStream4Vnni(const std::int8_t *wq, const std::uint8_t *xq,
                     const std::uint32_t *qs, std::size_t nq, bool identity,
                     std::int32_t *pacc);
void pairStreamGenericVnni(const std::int8_t *wq, const std::uint8_t *xq,
                           const std::uint32_t *qs, std::size_t nq,
                           bool identity, int v, std::int32_t *pacc);

} // namespace detail
} // namespace panacea

#endif // PANACEA_CORE_PAIR_PASS_H
