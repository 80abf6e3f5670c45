/**
 * @file
 * Internal micro-kernel interface of the bit-slice GEMM engines: the
 * "pair pass" - one branch-free sweep of a (weight-plane,
 * activation-plane) combination over a skip list of dense reduction
 * steps - and the runtime ISA-dispatch table that selects its widest
 * available implementation (scalar / SSE2 / AVX2 / AVX-512 /
 * AVX512-VNNI).
 *
 * Contract shared by every gather variant (and relied on for
 * cross-ISA parity):
 *
 *  - `wp` is the band's packed weight tile for one slice plane:
 *    wp[k * v + i] is the widened (int16) slice of output row i at
 *    reduction step k, contiguous per step.
 *  - `xp` is the widened (int16) activation plane, row-major [k][n];
 *    the pass reads the v elements at xp[k * n + ng_off].
 *  - `ks`/`nk`/`identity` name the dense reduction steps: when
 *    `identity` is true the steps are 0..nk-1 and `ks` may be null,
 *    otherwise ks[0..nk) holds them in increasing order.
 *  - `pacc` is the v x v row-major int32 pair accumulator. The pass
 *    OVERWRITES it with sum_k w[k][i] * x[k][j] (no positional shift;
 *    the caller applies `<< shift` when merging into the int64 tile).
 *  - Arithmetic must be exact: every pacc element is the exact int32
 *    sum of exact int16 x int16 products. Integer addition commutes,
 *    so any vectorization order yields bit-identical results; callers
 *    guarantee no int32 overflow (aqsBlockedKernelExact below).
 *
 * The stream variants read the 8-bit QUAD layout instead (see
 * PairStream4Fn): weight slices as s8, activation slices as u8, four
 * reduction steps per 32-bit lane (vpdpbusd, or vpmaddubsw followed by
 * vpmaddwd against ones). Their exactness rests on the slice ranges
 * the packers enforce per operand (detail::checkQuadSliceRange in
 * core/operand_pack.h): |w| <= 8 and 0 <= x <= 63. Headroom:
 *   - a vpmaddubsw int16 lane sums two products, |.| <= 2 * 8 * 63 =
 *     1008 < 2^15, so its saturation never engages;
 *   - a 32-bit lane gains at most 4 * 504 = 2016 per quad, and a pass
 *     sums |.| <= kk * 504 < 2^31 for kk < 2^22, so the int32 lanes
 *     (vpdpbusd is the non-saturating form) stay exact.
 * Signed (SBR) activation slices, which only the Sibia front end
 * produces, are stored as x + 8; the band removes 8 * sum(w) per row
 * (detail::quadActOffset), so the stream sums stay bit-identical to
 * the gathered ones.
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

/** Fixed v = 4 pair pass (the paper-default vector length). */
using PairPass4Fn = void (*)(const std::int16_t *wp,
                             const std::int16_t *xp, std::size_t n,
                             std::size_t ng_off, const std::uint32_t *ks,
                             std::size_t nk, bool identity,
                             std::int32_t *pacc);

/** Runtime-v pair pass (1 <= v <= 16). */
using PairPassGenericFn = void (*)(const std::int16_t *wp,
                                   const std::int16_t *xp, std::size_t n,
                                   std::size_t ng_off,
                                   const std::uint32_t *ks, std::size_t nk,
                                   bool identity, int v,
                                   std::int32_t *pacc);

/**
 * Streaming v = 4 pass over the 8-bit QUAD layout. `wq` and `xq` hold
 * `quads` step quads contiguously, 16 bytes each: wq[q*16 + 4*i + s]
 * is the s8 weight slice of output row i at reduction step 4q+s,
 * xq[q*16 + 4*j + s] the u8 activation slice of output column j (tail
 * steps past kk are zero on both operands). Each 32-bit lane sums the
 * four steps of one (i, j) element, so one wide contiguous load per
 * operand feeds four reduction steps per lane. The engines substitute
 * a masked-dense stream for a skip-list gather when the decision
 * prefers it (compressed steps are pre-zeroed in wq/xq, so their
 * products vanish and the sum is bit-identical to the gathered one).
 * OVERWRITES pacc.
 */
using PairStream4Fn = void (*)(const std::int8_t *wq,
                               const std::uint8_t *xq, std::size_t quads,
                               std::int32_t *pacc);

/**
 * Streaming runtime-v (1 <= v <= 16) pass over the quad layout: the
 * generic-v counterpart of PairStream4Fn. `wq` and `xq` hold `quads`
 * step quads contiguously, 4v bytes each: wq[q*4v + 4*i + s] is the s8
 * weight slice of output row i at reduction step 4q+s,
 * xq[q*4v + 4*j + s] the u8 activation slice of output column j (the
 * layout quadSlicePlanes / packWeightBandQuad emit for any v).
 * OVERWRITES pacc (v x v row-major int32).
 */
using PairStreamGenericFn = void (*)(const std::int8_t *wq,
                                     const std::uint8_t *xq,
                                     std::size_t quads, int v,
                                     std::int32_t *pacc);

/**
 * One (row, column) element of a quad-layout stream in scalar code:
 * the column tails of the generic stream kernels. `w` / `x` point at
 * the row's / column's four slices of quad 0; consecutive quads are
 * `stride` (= 4v) bytes apart.
 */
inline std::int32_t
quadDotScalar(const std::int8_t *w, const std::uint8_t *x,
              std::size_t quads, std::size_t stride)
{
    std::int32_t sum = 0;
    for (std::size_t q = 0; q < quads; ++q)
        for (std::size_t s = 0; s < 4; ++s)
            sum += static_cast<std::int32_t>(w[q * stride + s]) *
                   static_cast<std::int32_t>(x[q * stride + s]);
    return sum;
}

/** One row of the ISA-dispatch table. */
struct PairPassKernels
{
    IsaLevel level = IsaLevel::Scalar; ///< nominal tier of this row
    PairPass4Fn pass4 = nullptr;
    PairPassGenericFn passGeneric = nullptr;
    /**
     * Null below Avx2: the SSE2 tier keeps its v = 4 gather kernel,
     * which keeps the per-ISA bench comparison honest and the
     * quad-operand build optional.
     */
    PairStream4Fn stream4 = nullptr;
    /**
     * Generic-v streaming pass. Populated from the SSE2 tier up (SSE2
     * widens the quads in-register and fuses step pairs with pmaddwd,
     * which is what makes a dense masked stream beat the scalar
     * gather); null in the scalar row, so the scalar tier stays a pure
     * gather engine and the quad-operand build optional.
     */
    PairStreamGenericFn streamGeneric = nullptr;
};

/**
 * The dispatch table row for an ISA level, clamped to
 * min(detectedIsaLevel(), compiledIsaLevel()). A tier without its own
 * variant inherits the next-lower implementation (e.g. the SSE2 row
 * keeps the scalar generic-v kernel), so every returned row is fully
 * populated and every function pointer is runnable on this host.
 */
const PairPassKernels &pairPassKernels(IsaLevel level);

/**
 * Whether this dispatch row can run a streaming (masked-dense) pass
 * for vector length v - the ONE predicate behind both the
 * quad-operand precompute gate at prep time and the stream_ok check
 * inside the GEMM engines. Keeping it here (next to the table it
 * describes) is what guarantees a new tier cannot be wired into one
 * check but not the other: both sides see the same row and the same
 * v condition. The generic slot is bounded by the blocked micro-tile
 * limit (v <= 16); above it the engines fall back to the scalar
 * reference, which never streams.
 */
inline bool
streamKernelsRunnable(const PairPassKernels &kern, int v)
{
    return v == 4 ? kern.stream4 != nullptr
                  : v <= 16 && kern.streamGeneric != nullptr;
}

/**
 * Exactness domain of the AQS-GEMM blocked kernel (aqsGemm): its int32
 * pair accumulators stay exact while kk * max|slice product| < 2^31,
 * which kk < 2^22 guarantees (|product| <= 8 * 63; see the quad
 * headroom above), and its micro-tile
 * is bounded at v <= 16. Outside it aqsGemm and legacyBitsliceGemm
 * (the band's Sibia front end) run aqsGemmReference.
 */
constexpr bool
aqsBlockedKernelExact(std::size_t kk, int v)
{
    return kk < (std::size_t{1} << 22) && v <= 16;
}

// Per-ISA implementations. Declared unconditionally; the AVX2/AVX-512
// symbols are only referenced (and defined) when the matching
// PANACEA_HAVE_*_KERNELS macro is set at configure time.
void pairPass4Scalar(const std::int16_t *wp, const std::int16_t *xp,
                     std::size_t n, std::size_t ng_off,
                     const std::uint32_t *ks, std::size_t nk,
                     bool identity, std::int32_t *pacc);
void pairPassGenericScalar(const std::int16_t *wp, const std::int16_t *xp,
                           std::size_t n, std::size_t ng_off,
                           const std::uint32_t *ks, std::size_t nk,
                           bool identity, int v, std::int32_t *pacc);
void pairPass4Sse2(const std::int16_t *wp, const std::int16_t *xp,
                   std::size_t n, std::size_t ng_off,
                   const std::uint32_t *ks, std::size_t nk, bool identity,
                   std::int32_t *pacc);
void pairStreamGenericSse2(const std::int8_t *wq, const std::uint8_t *xq,
                           std::size_t quads, int v, std::int32_t *pacc);
void pairPass4Avx2(const std::int16_t *wp, const std::int16_t *xp,
                   std::size_t n, std::size_t ng_off,
                   const std::uint32_t *ks, std::size_t nk, bool identity,
                   std::int32_t *pacc);
void pairStream4Avx2(const std::int8_t *wq, const std::uint8_t *xq,
                     std::size_t quads, std::int32_t *pacc);
void pairPassGenericAvx2(const std::int16_t *wp, const std::int16_t *xp,
                         std::size_t n, std::size_t ng_off,
                         const std::uint32_t *ks, std::size_t nk,
                         bool identity, int v, std::int32_t *pacc);
void pairStreamGenericAvx2(const std::int8_t *wq, const std::uint8_t *xq,
                           std::size_t quads, int v, std::int32_t *pacc);
void pairPass4Avx512(const std::int16_t *wp, const std::int16_t *xp,
                     std::size_t n, std::size_t ng_off,
                     const std::uint32_t *ks, std::size_t nk,
                     bool identity, std::int32_t *pacc);
void pairStream4Avx512(const std::int8_t *wq, const std::uint8_t *xq,
                       std::size_t quads, std::int32_t *pacc);
void pairPassGenericAvx512(const std::int16_t *wp, const std::int16_t *xp,
                           std::size_t n, std::size_t ng_off,
                           const std::uint32_t *ks, std::size_t nk,
                           bool identity, int v, std::int32_t *pacc);
void pairStreamGenericAvx512(const std::int8_t *wq, const std::uint8_t *xq,
                             std::size_t quads, int v, std::int32_t *pacc);
void pairPass4Vnni(const std::int16_t *wp, const std::int16_t *xp,
                   std::size_t n, std::size_t ng_off,
                   const std::uint32_t *ks, std::size_t nk, bool identity,
                   std::int32_t *pacc);
void pairStream4Vnni(const std::int8_t *wq, const std::uint8_t *xq,
                     std::size_t quads, std::int32_t *pacc);
void pairStreamGenericVnni(const std::int8_t *wq, const std::uint8_t *xq,
                           std::size_t quads, int v, std::int32_t *pacc);

} // namespace detail
} // namespace panacea

#endif // PANACEA_CORE_PAIR_PASS_H
