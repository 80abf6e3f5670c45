/**
 * @file
 * The Asymmetrically-Quantized bit-Slice GEMM (AQS-GEMM), the paper's
 * primary contribution (§III-B, Fig. 7, Eq. (4)-(6)).
 *
 * Weights are SBR-sliced symmetric codes; activations are straightforward
 * or DBS-sliced asymmetric codes. HO slice-vectors are compressed
 * (all-zero weight vectors, all-r activation vectors with r = HO(zp'))
 * and their outer products skipped. Exactness is restored by the
 * compensation term of Eq. (6):
 *
 *   (W_HO + W_LO) x_HO
 *     = (W_HO + W_LO) xU_HO - r (W_HO + W_LO) JU + b',
 *   b' = r (W_HO + W_LO) 1_{KxN}   (folded into the bias offline)
 *
 * which touches only weight columns already loaded for the uncompressed
 * work, eliminating the extra memory accesses of the naive Eq. (5) form.
 *
 * The engine is functional (it produces the bit-exact integer GEMM
 * result) and counted: every multiply, add and nibble of traffic is
 * reported so Table I and the energy model can be validated against it.
 * The scalar reference tallies its counters in its loop nest; aqsGemm()
 * takes them from aqsCountStats(), which derives them from the HO masks
 * alone, so the blocked band itself counts nothing. The RLE traffic
 * terms count the entries the encoder of slicing/rle.h would store for
 * each mask row or column (RleEntryCounter); no stream is built.
 *
 * Determinism guarantees (enforced by tests/test_kernel_parity.cpp):
 * aqsGemm() returns results AND statistics bit-identical to
 * aqsGemmReference() for every thread count (PANACEA_THREADS) and every
 * micro-kernel ISA level (PANACEA_ISA; see util/cpu_features.h and the
 * dispatch table in core/pair_pass.h). Threading and vectorization only
 * change throughput, never a single output or counter bit.
 */

#ifndef PANACEA_CORE_AQS_GEMM_H
#define PANACEA_CORE_AQS_GEMM_H

#include <cstdint>
#include <span>
#include <vector>

#include "slicing/slice_types.h"
#include "slicing/slice_tensor.h"
#include "util/matrix.h"

namespace panacea {

/** Which activation HO vectors the engine may skip. */
enum class ActSkipMode
{
    RValued,   ///< skip all-r vectors with compensation (AQS-GEMM)
    ZeroOnly,  ///< skip only all-zero vectors (previous bit-slice GEMMs)
    None,      ///< dense activation processing
};

/** @return printable name of a skip mode. */
const char *toString(ActSkipMode mode);

/** Static configuration of an AQS-GEMM instance. */
struct AqsConfig
{
    int v = 4;               ///< slice-vector length
    int rleIndexBits = 4;    ///< RLE skip-index width
    ActSkipMode actSkip = ActSkipMode::RValued;
    bool useEq6 = true;      ///< weight-reusing compensation (Eq. (6))
};

/** Prepared (sliced + compressed) weight operand. */
struct WeightOperand
{
    SlicedMatrix sliced;  ///< SBR planes, low to high
    MatrixI32 totalCodes; ///< reconstructed codes (for CS reuse)
    MatrixU8 hoMask;      ///< (M/v) x K, 1 = all-zero HO vector
};

/** Prepared (sliced + compressed) activation operand. */
struct ActivationOperand
{
    SlicedMatrix sliced; ///< unsigned planes, low to high
    Slice r = 0;         ///< frequent HO slice (skip value)
    MatrixU8 hoMask;     ///< K x (N/v), 1 = compressed vector
    /**
     * u8 step-quad copies of the slice planes, [level][n-group][quad][4v]
     * (1 byte per activation per level, tail steps zero), with
     * compressed HO vectors stored as zero slices (see
     * detail::quadSlicePlanes): the operand of every pair pass, four
     * reduction steps per 32-bit lane. prepareActivations* builds it
     * whenever the blocked kernel will run (v <= 16, K < 2^22).
     * Optional: aqsGemm rebuilds it on the fly when absent (hand-built
     * operands). Invariant: derived from `sliced` + `hoMask` - a caller
     * that mutates either in place afterwards must clear() it, or the
     * engines diverge silently.
     */
    std::vector<std::uint8_t> quadPlanes;
};

/** Execution statistics of one AQS-GEMM call. */
struct AqsStats
{
    std::uint64_t denseOuterProducts = 0; ///< dense bit-slice OP count
    std::uint64_t executedOuterProducts = 0;
    std::uint64_t skippedOuterProducts = 0;
    std::uint64_t mults = 0;        ///< executed 4b x 4b multiplies
    std::uint64_t adds = 0;         ///< executed accumulator adds
    std::uint64_t compMults = 0;    ///< compensation outer-product mults
    std::uint64_t compAdds = 0;     ///< compensation accumulations
    std::uint64_t compExtraEmaNibbles = 0; ///< Eq. (5) reload traffic
    std::uint64_t wNibbles = 0;     ///< weight slice traffic (compressed)
    std::uint64_t xNibbles = 0;     ///< activation slice traffic
    std::uint64_t wIndexBits = 0;   ///< weight RLE index traffic
    std::uint64_t xIndexBits = 0;   ///< activation RLE index traffic
    std::uint64_t denseNibbles = 0; ///< uncompressed traffic baseline

    /**
     * MACs per dense outer product (v * v), set by the engines from the
     * configuration they ran with. Merging records blends the value
     * weighted by dense outer products, so macReduction() stays correct
     * even when aggregating layers that ran with different v.
     */
    double macsPerOuterProduct = 16.0;

    /** Fraction of dense bit-slice MACs eliminated. */
    double macReduction() const;

    /** Total multiplies including compensation. */
    std::uint64_t totalMults() const { return mults + compMults; }
    /** Total adds including compensation. */
    std::uint64_t totalAdds() const { return adds + compAdds; }
    /** Total slice traffic in nibbles, including index overhead. */
    std::uint64_t
    totalTrafficNibbles() const
    {
        return wNibbles + xNibbles + (wIndexBits + xIndexBits + 3) / 4 +
               compExtraEmaNibbles;
    }

    /** Accumulate another stats record into this one. */
    AqsStats &operator+=(const AqsStats &other);

    /**
     * Add only the integer counters of another record (everything
     * except the floating macsPerOuterProduct blend). The single
     * field list both operator+= and order-independent folds (the
     * serving engine's aggregate) build on.
     */
    AqsStats &addCounters(const AqsStats &other);
};

/**
 * Prepare a weight operand: SBR-slice the codes and build the HO
 * compression mask (1 on every all-zero HO vector).
 *
 * @param codes symmetric weight codes, (3n+4)-bit
 * @param n     number of LO slices
 * @param cfg   engine configuration
 */
WeightOperand prepareWeights(const MatrixI32 &codes, int n,
                             const AqsConfig &cfg);

/**
 * Prepare an activation operand with straightforward slicing.
 *
 * @param codes unsigned activation codes, (4k+4)-bit
 * @param k     number of LO slices
 * @param zp    the (possibly ZPM-manipulated) zero point; the skip value
 *              is its HO slice r = zp >> 4k under RValued skipping
 */
ActivationOperand prepareActivations(const MatrixI32 &codes, int k,
                                     std::int32_t zp, const AqsConfig &cfg);

/**
 * Prepare an 8-bit activation operand with the DBS slicing rule.
 *
 * @param lo_bits the DBS LO width l in {4,5,6}
 * @param r       the frequent HO slice r'' from the type-based ZPM
 */
ActivationOperand prepareActivationsDbs(const MatrixI32 &codes, int lo_bits,
                                        Slice r, const AqsConfig &cfg);

/**
 * Execute the AQS-GEMM: returns the bit-exact integer accumulator
 * W_codes * x_codes (for DBS, over the LSB-masked effective activation
 * codes). When stats is non-null, aqsCountStats(w, x, cfg) is added to
 * *stats; with stats == nullptr nothing is counted.
 *
 * Preconditions: operands prepared with the same cfg.v (M and N must be
 * divisible by v); W is M x K, x is K x N. The blocked kernel runs for
 * v <= 16 and K < 2^22 (the int32 pair-accumulator exactness domain)
 * and falls back to the scalar reference outside it. Parallel over the
 * shared pool and vectorized per the active ISA level — bit-identical
 * to aqsGemmReference() in both results and statistics either way
 * (parity-checked in tests/test_kernel_parity.cpp).
 */
MatrixI64 aqsGemm(const WeightOperand &w, const ActivationOperand &x,
                  const AqsConfig &cfg, AqsStats *stats = nullptr);

namespace detail {

/**
 * The blocked band driver behind aqsGemm() and legacyBitsliceGemm()
 * (core/legacy_gemm.h): runs the register-blocked band over every
 * m-group on the shared pool and returns W * x. It reads the operands
 * by reference - slice planes, the weight HO mask ((M/v) x K), the
 * activation HO mask (K x N/v; may be empty under ActSkipMode::None)
 * and, under ActSkipMode::RValued only, the total weight codes and the
 * skip value r. xq_cache is the optional precomputed
 * ActivationOperand::quadPlanes of x; a missing or mis-sized one is
 * rebuilt locally. Signed activation planes (the Sibia front end's SBR
 * activations) are stored as x + 8 with an exact per-row correction
 * (detail::quadActOffset). Counts nothing.
 *
 * Preconditions: shapes checked (M, N divisible by cfg.v, x.rows() ==
 * w.cols()) and aqsBlockedKernelExact(w.cols(), cfg.v).
 */
MatrixI64 blockedGemm(const SlicedMatrix &w, const MatrixU8 &w_mask,
                      const MatrixI32 &w_total, const SlicedMatrix &x,
                      const MatrixU8 &x_mask, Slice r,
                      const AqsConfig &cfg,
                      std::span<const std::uint8_t> xq_cache = {});

} // namespace detail

/**
 * Concatenate prepared activation operands along the column (token)
 * axis: the batch-assembly primitive of the serving runtime
 * (src/serve/). Every structure of an ActivationOperand is
 * column-blocked (slice planes, HO mask, the quad kernel operand), so
 * concatenation is pure block copies - no re-slicing - and the result is
 * byte-identical to preparing the concatenated codes directly.
 *
 * Preconditions: all operands prepared by the same layer/configuration
 * (same K, plane count/shifts, skip value r, column counts divisible by
 * cfg.v). The quad kernel operand is concatenated only when every
 * source carries it (it is optional per the ActivationOperand
 * contract); otherwise the result's stays empty and the engine
 * rebuilds it on demand.
 *
 * Combined with aqsGemm()'s column-slice determinism - each v-wide
 * output column group depends only on its own activation columns - a
 * batched GEMM over the concatenated operand returns, in request r's
 * columns, exactly the bits a solo run of request r would
 * (tests/test_operand_reuse.cpp).
 */
ActivationOperand
concatActivationOperands(std::span<const ActivationOperand *const> ops,
                         const AqsConfig &cfg);

/**
 * Counting-only twin of aqsGemm() restricted to the output column
 * groups [ng_begin, ng_end): returns the exact statistics a GEMM over
 * just those activation columns would record, without executing any
 * arithmetic. Statistics depend only on the HO masks (never on operand
 * values), so this is O(M/v * K + K * groups) mask counting instead of
 * a GEMM.
 *
 * Invariants (enforced by tests/test_operand_reuse.cpp):
 *  - full range: bit-equal to the stats aqsGemm()/aqsGemmReference()
 *    accumulate for the same operands;
 *  - sub-range of a concatenated operand: bit-equal to the solo stats
 *    of the source operand occupying those columns (weight-side and
 *    per-call traffic terms count per call, exactly like a solo run).
 * The serving engine uses this to attribute per-request statistics out
 * of one batched GEMM call.
 *
 * ng_end is clamped to N/v; the default (-1) covers the full operand.
 */
AqsStats aqsCountStats(const WeightOperand &w, const ActivationOperand &x,
                       const AqsConfig &cfg, std::size_t ng_begin = 0,
                       std::size_t ng_end = static_cast<std::size_t>(-1));

/**
 * Batched aqsCountStats(): one record per consecutive column-group
 * range [group_offsets[i], group_offsets[i+1]). The weight-side mask
 * scan (the O(M/v * K) part) runs once and is shared across all
 * ranges, so attributing per-request statistics over an R-wide batch
 * costs one weight scan plus R activation-range scans. Each record is
 * bit-equal to aqsCountStats() over the same range.
 */
std::vector<AqsStats>
aqsCountStatsBatch(const WeightOperand &w, const ActivationOperand &x,
                   const AqsConfig &cfg,
                   std::span<const std::size_t> group_offsets);

/**
 * The weight-side summary the counting entry points derive from an HO
 * compression mask: total dense (uncompressed) steps over all m-bands,
 * the per-step column density the HO_w x HO_x intersection term reads,
 * and the RLE entries the m-bands' HO streams store at one index width.
 * It depends only on the prepared WeightOperand, v and the index width
 * - never on any activation - so a long-lived layer (the serving
 * runtime's ServedModel) computes it once and every micro-batch reuses
 * it instead of re-scanning the O(M/v * K) mask per call.
 */
struct WeightCountingCache
{
    std::uint64_t wdSum = 0;            ///< dense steps over all m-bands
    std::vector<std::uint32_t> wcol;    ///< per step k: dense m-band count
    std::uint64_t wStored = 0;          ///< HO RLE entries, all m-bands
    int indexBits = defaultRleIndexBits; ///< RLE index width counted
};

/** Scan w.hoMask once; see WeightCountingCache. */
WeightCountingCache
buildWeightCountingCache(const WeightOperand &w, int v,
                         int index_bits = defaultRleIndexBits);

/**
 * aqsCountStats() with a precomputed weight-side scan: bit-equal to the
 * scanning overload for a cache built from the same operand, v and
 * cfg.rleIndexBits (enforced by tests/test_operand_reuse.cpp).
 */
AqsStats aqsCountStats(const WeightOperand &w, const ActivationOperand &x,
                       const AqsConfig &cfg,
                       const WeightCountingCache &wcache,
                       std::size_t ng_begin = 0,
                       std::size_t ng_end = static_cast<std::size_t>(-1));

/** aqsCountStatsBatch() with a precomputed weight-side scan. */
std::vector<AqsStats>
aqsCountStatsBatch(const WeightOperand &w, const ActivationOperand &x,
                   const AqsConfig &cfg,
                   const WeightCountingCache &wcache,
                   std::span<const std::size_t> group_offsets);

/**
 * Scalar reference implementation of the AQS-GEMM: the original 7-deep
 * loop nest with per-element indexing, single-threaded. Retained as the
 * ground truth for the blocked/parallel kernel - aqsGemm() must match it
 * bit-for-bit (accumulator and statistics) for every configuration - and
 * as the "old kernel" side of bench_kernels.
 */
MatrixI64 aqsGemmReference(const WeightOperand &w,
                           const ActivationOperand &x, const AqsConfig &cfg,
                           AqsStats *stats = nullptr);

} // namespace panacea

#endif // PANACEA_CORE_AQS_GEMM_H
