#include "core/aqs_gemm.h"

#include <algorithm>
#include <array>
#include <vector>

#include "core/kernel_cost_model.h"
#include "core/operand_pack.h"
#include "core/pair_pass.h"
#include "slicing/rle.h"
#include "slicing/sparsity.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace panacea {

const char *
toString(ActSkipMode mode)
{
    switch (mode) {
      case ActSkipMode::RValued:  return "r-valued";
      case ActSkipMode::ZeroOnly: return "zero-only";
      case ActSkipMode::None:     return "none";
    }
    return "?";
}

double
AqsStats::macReduction() const
{
    if (denseOuterProducts == 0 || macsPerOuterProduct <= 0.0)
        return 0.0;
    double dense_macs = static_cast<double>(denseOuterProducts) *
                        macsPerOuterProduct;
    double done = static_cast<double>(totalMults());
    return 1.0 - done / dense_macs;
}

AqsStats &
AqsStats::operator+=(const AqsStats &other)
{
    // Dense-OP-weighted blend keeps the macReduction() denominator
    // exact when layers ran with different vector lengths.
    const double d_old = static_cast<double>(denseOuterProducts);
    const double d_other = static_cast<double>(other.denseOuterProducts);
    if (d_old + d_other > 0.0)
        macsPerOuterProduct = (macsPerOuterProduct * d_old +
                               other.macsPerOuterProduct * d_other) /
                              (d_old + d_other);
    return addCounters(other);
}

AqsStats &
AqsStats::addCounters(const AqsStats &other)
{
    denseOuterProducts += other.denseOuterProducts;
    executedOuterProducts += other.executedOuterProducts;
    skippedOuterProducts += other.skippedOuterProducts;
    mults += other.mults;
    adds += other.adds;
    compMults += other.compMults;
    compAdds += other.compAdds;
    compExtraEmaNibbles += other.compExtraEmaNibbles;
    wNibbles += other.wNibbles;
    xNibbles += other.xNibbles;
    wIndexBits += other.wIndexBits;
    xIndexBits += other.xIndexBits;
    denseNibbles += other.denseNibbles;
    return *this;
}

WeightOperand
prepareWeights(const MatrixI32 &codes, int n, const AqsConfig &cfg)
{
    WeightOperand op;
    op.sliced = sbrSliceMatrix(codes, n);
    op.totalCodes = op.sliced.reconstruct();
    panic_if(!(op.totalCodes == codes), "SBR slicing is not lossless");

    op.hoMask = weightVectorMask(op.sliced.hoPlane().data, cfg.v);
    return op;
}

namespace {

/** Build the mask and the quad kernel operand for an activation HO
 *  plane. */
void
finishActivationOperand(ActivationOperand &op, const AqsConfig &cfg)
{
    const Matrix<Slice> &ho = op.sliced.hoPlane().data;
    switch (cfg.actSkip) {
      case ActSkipMode::RValued:
        op.hoMask = activationVectorMask(ho, cfg.v, op.r);
        break;
      case ActSkipMode::ZeroOnly:
        op.hoMask = activationVectorMask(ho, cfg.v, 0);
        break;
      case ActSkipMode::None:
        op.hoMask = MatrixU8(ho.rows(), ho.cols() / cfg.v, 0);
        break;
    }
    // The quad operand of every pair pass, whenever the blocked band
    // (not the scalar reference) will run.
    if (detail::aqsBlockedKernelExact(ho.rows(), cfg.v))
        op.quadPlanes =
            detail::quadSlicePlanes(op.sliced, cfg.v, &op.hoMask);
}

/** Shape checks shared by the reference and blocked kernels. */
void
checkShapes(const WeightOperand &w, const ActivationOperand &x, int v)
{
    const std::size_t m = w.sliced.rows();
    const std::size_t kk = w.sliced.cols();
    const std::size_t n = x.sliced.cols();
    panic_if(x.sliced.rows() != kk, "AQS-GEMM shape mismatch: W ", m, "x",
             kk, " * x ", x.sliced.rows(), "x", n);
    panic_if(m % v != 0 || n % v != 0,
             "AQS-GEMM needs M and N divisible by v=", v);
}

/**
 * Traffic accounting shared by both kernels and the counting-only
 * entry point: dense LO planes plus RLE-compressed HO planes, where
 * w_stored / x_stored are the HO entries the weight and activation
 * streams store (RleEntryCounter over the masks), identical for any
 * execution schedule. The activation side covers n column bands only
 * (full kernels pass them all); the weight side always counts in full
 * - weights are loaded once per GEMM call regardless of how many
 * columns it serves.
 */
void
countTraffic(AqsStats &local, std::size_t m, std::size_t kk,
             std::size_t w_levels, std::size_t x_levels, std::size_t n,
             const AqsConfig &cfg, std::uint64_t w_stored,
             std::uint64_t x_stored)
{
    const std::uint64_t uv = static_cast<std::uint64_t>(cfg.v);
    const std::uint64_t bits =
        static_cast<std::uint64_t>(cfg.rleIndexBits);
    local.wNibbles =
        static_cast<std::uint64_t>(m) * kk * (w_levels - 1) + w_stored * uv;
    local.xNibbles =
        static_cast<std::uint64_t>(kk) * n * (x_levels - 1) + x_stored * uv;
    local.wIndexBits = w_stored * bits;
    local.xIndexBits = x_stored * bits;
    local.denseNibbles = static_cast<std::uint64_t>(m) * kk * w_levels +
                         static_cast<std::uint64_t>(kk) * n * x_levels;
}

/**
 * m-groups a band processes together. Each n-group's activation quad
 * planes are then read once per block instead of once per m-group,
 * which matters when an n-group's operand outgrows the private caches
 * (K = 8192 x 3 activation levels streams ~12 MB of quads per m-group
 * from L3). A constant chosen by measurement on the served llama32_1b
 * shapes, not an option.
 */
constexpr std::size_t kMGroupBlock = 4;

/**
 * The quads one pair pass visits: `qs` == nullptr means all `nq` = kq
 * quads in order (the dense stream), else the listed quads qs[0..nq).
 */
struct QuadList
{
    const std::uint32_t *qs = nullptr;
    std::size_t nq = 0;
};

/**
 * The register-blocked kernel body for one contiguous band of m-groups
 * [mg0, mg1). Instantiated with VT = 4 for the paper-default vector
 * length (fixed-size micro-tile, fully unrollable) and VT = 0 for a
 * runtime v (v <= 16).
 *
 * The band walks its m-groups in blocks of kMGroupBlock. Per m-group
 * of a block:
 *   - pack the v weight rows of every slice plane into the s8 quad
 *     layout (reused across every n-group);
 *   - build the weight-side dense-step bitset from the HO mask row and
 *     list the quads that hold a dense step (detail::quadListOf).
 * Per n-group, then per m-group of the block, one (mg, ng) tile:
 *   - run one pair pass (through the ISA-dispatched kernel table
 *     `kern`; see core/pair_pass.h) per (weight-plane,
 *     activation-plane) combination over the quad operands: all quads
 *     for LO/LO pairs, the weight-side quad list for HO_w, the
 *     activation-side list for HO_x, and for HO_w/HO_x the quads of the
 *     ANDed dense-step bitsets (counted by popcount, listed by ctz only
 *     when the pass reads the list). The stream decision `sd` (resolved
 *     once per GEMM call from the active policy; see
 *     core/kernel_cost_model.h) picks the dense stream over all quads
 *     instead once at least half of them are listed.
 *     The operands zero every compressed step, so both visit the same
 *     nonzero products and the choice never changes a result;
 *   - merge each int32 pair accumulator into the int64 micro-tile with
 *     its positional shift, add the Eq. (6) compensation, and write the
 *     tile back in one pass.
 * Signed activation planes (Sibia) are stored as x + x_off; each pass
 * over them subtracts x_off * (row sums of the weight plane), which is
 * exact when every unvisited quad has zero weights - so such passes
 * take no activation-side list. The band counts nothing: statistics
 * come from aqsCountStats, which derives them from the masks alone.
 * Bands own disjoint accumulator rows, so results are bit-identical
 * for any thread count or block size.
 *
 * The band reads its operands by reference - slice planes, the weight
 * HO mask and, under r-valued skipping only, the total weight codes -
 * so the Sibia front end (core/legacy_gemm.h) runs it on its sliced
 * inputs without building operand structs.
 */
template <int VT>
void
blockedBand(const SlicedMatrix &w, const MatrixU8 &w_mask,
            const MatrixI32 &w_total, const SlicedMatrix &x, Slice r,
            const AqsConfig &cfg, const detail::PairPassKernels &kern,
            const detail::StreamDecision &sd,
            const detail::SkipLists &xd, const std::uint8_t *xq,
            std::size_t mg0, std::size_t mg1, MatrixI64 &acc)
{
    const int v = VT > 0 ? VT : cfg.v;
    constexpr int TV = VT > 0 ? VT : 16; // static tile bound (v <= 16)
    panic_if(v > TV, "AQS-GEMM blocked kernel supports v <= ", TV);
    const std::size_t uv = static_cast<std::size_t>(v);

    const std::size_t kk = w.cols();
    const std::size_t n = x.cols();
    const std::size_t n_groups = n / uv;
    const std::size_t w_levels = w.levels();
    const std::size_t x_levels = x.levels();
    const std::size_t w_ho = w_levels - 1;
    const std::size_t x_ho = x_levels - 1;
    const bool r_skip = cfg.actSkip == ActSkipMode::RValued;
    const int x_ho_shift = x.hoPlane().shift;
    const std::int64_t r_scaled = static_cast<std::int64_t>(r)
                                  << x_ho_shift;

    std::vector<int> xshift(x_levels);
    for (std::size_t xl = 0; xl < x_levels; ++xl)
        xshift[xl] = x.planes[xl].shift;

    const std::size_t kq = detail::quadCount(kk);
    const std::size_t pw = 4 * uv;
    const std::int32_t x_off = detail::quadActOffset(x);
    const std::size_t words = detail::bitsetWords(kk);
    const QuadList all{nullptr, kq};
    // A listed pass, unless the stream decision streams it.
    const auto choose = [&](const std::uint32_t *qs, std::size_t nq) {
        return sd.profitable(nq, kq) ? all : QuadList{qs, nq};
    };

    // Per-m-group operands of one block, allocated once per band and
    // reused for every block.
    struct MGroup
    {
        std::size_t mg = 0;
        bool wfull = false; ///< every step of the band is dense
        std::vector<std::uint64_t> wbits;
        std::vector<std::uint32_t> wqs; ///< quads holding a dense step
        QuadList wlist;                 ///< HO_w passes' choice
        std::vector<std::int8_t> wq;
        /// x_off * quad row sums, one v-row per plane of wq.
        std::vector<std::int32_t> wqoff;
        std::vector<std::int32_t> ttpack;
        std::array<std::int64_t, TV> bprow, ttfull;
    };
    std::vector<MGroup> block(std::min(kMGroupBlock, mg1 - mg0));
    for (MGroup &g : block) {
        g.wbits.resize(words);
        g.wqs.resize(kq);
        g.ttpack.resize(r_skip ? kk * uv : 0);
        g.wqoff.resize(x_off != 0 ? w_levels * uv : 0);
    }
    std::vector<std::uint32_t> both_qs(kq);
    std::array<std::int32_t, TV * TV> pacc;
    std::array<std::int64_t, TV * TV> tile;
    std::array<std::int64_t, TV> wsum;

    auto prepare = [&](MGroup &g, std::size_t mg) {
        g.mg = mg;
        g.wfull = detail::denseStepsOfRow(w_mask.row(mg).data(), kk,
                                          g.wbits.data()) == kk;
        const std::uint64_t *wbits = g.wbits.data();
        const std::size_t nwq = detail::quadListOf(
            words, [wbits](std::size_t i) { return wbits[i]; },
            g.wqs.data());
        g.wlist = g.wfull ? all : choose(g.wqs.data(), nwq);

        detail::packWeightBandQuad(w, mg, v, g.wq);
        if (x_off != 0) {
            for (std::size_t wl = 0; wl < w_levels; ++wl)
                detail::quadRowSums(g.wq.data() + wl * kq * pw, kq, v,
                                    g.wqoff.data() + wl * uv);
            for (std::int32_t &e : g.wqoff)
                e *= x_off;
        }

        if (r_skip) {
            // Offline term b' = r * 2^shift * row sums of the total
            // weight codes (Eq. (6)), plus the packed total codes the
            // CS reuses for the wsum accumulation.
            for (int i = 0; i < v; ++i) {
                const std::int32_t *src =
                    w_total.row(mg * uv + static_cast<std::size_t>(i))
                        .data();
                std::int64_t sum = 0;
                for (std::size_t k = 0; k < kk; ++k) {
                    sum += src[k];
                    g.ttpack[k * uv + static_cast<std::size_t>(i)] = src[k];
                }
                g.ttfull[static_cast<std::size_t>(i)] = sum;
                g.bprow[static_cast<std::size_t>(i)] = sum * r_scaled;
            }
        }
    };

    auto runTile = [&](const MGroup &g, std::size_t ng) {
        const std::size_t mg = g.mg;
        const std::uint32_t *xlist = xd.identity ? nullptr : xd.list(ng);
        const std::size_t nxd = xd.identity ? kk : xd.count(ng);
        const bool xd_full = nxd == kk;
        const std::size_t ng_off = ng * uv;

        // Activation-side list: none when every step is dense, and none
        // over offset (signed) activations, whose correction needs
        // every quad with nonzero weights visited.
        const bool x_listed = !xd_full && x_off == 0;
        const QuadList xlist_q =
            x_listed ? choose(xd.qlist(ng), xd.qcount(ng)) : all;
        // HO_w x HO_x: the intersection's quads when both sides list
        // (counted by popcount, listed only when a pass reads them).
        QuadList both = g.wfull ? xlist_q : g.wlist;
        if (!g.wfull && x_listed) {
            const std::uint64_t *xbits = xd.bitset(ng);
            const std::uint64_t *wbits = g.wbits.data();
            const auto word = [&](std::size_t i) {
                return xbits[i] & wbits[i];
            };
            const std::size_t nboth = detail::quadCountOf(words, word);
            both = sd.profitable(nboth, kq)
                       ? all
                       : QuadList{both_qs.data(),
                                  detail::quadListOf(words, word,
                                                     both_qs.data())};
        }

        tile.fill(0);

        for (std::size_t wl = 0; wl < w_levels; ++wl) {
            const std::int8_t *wqp = g.wq.data() + wl * kq * pw;
            const int w_shift = w.planes[wl].shift;
            const bool w_is_ho = wl == w_ho;
            for (std::size_t xl = 0; xl < x_levels; ++xl) {
                const bool x_is_ho = xl == x_ho;
                const QuadList &ql = w_is_ho ? (x_is_ho ? both : g.wlist)
                                             : (x_is_ho ? xlist_q : all);
                const std::uint8_t *xqp =
                    xq + (xl * n_groups + ng) * kq * pw;
                const bool identity = ql.qs == nullptr;
                if constexpr (VT == 4)
                    kern.stream4(wqp, xqp, ql.qs, ql.nq, identity,
                                 pacc.data());
                else
                    kern.streamGeneric(wqp, xqp, ql.qs, ql.nq, identity, v,
                                       pacc.data());
                if (x_off != 0) {
                    const std::int32_t *off = g.wqoff.data() + wl * uv;
                    for (int i = 0; i < v; ++i)
                        for (int j = 0; j < v; ++j)
                            pacc[static_cast<std::size_t>(i * v + j)] -=
                                off[i];
                }

                const int shift = w_shift + xshift[xl];
                for (int e = 0; e < v * v; ++e)
                    tile[static_cast<std::size_t>(e)] +=
                        static_cast<std::int64_t>(
                            pacc[static_cast<std::size_t>(e)])
                        << shift;
            }
        }
        if (r_skip) {
            // Eq. (6): wsum over the weight columns of uncompressed
            // activation vectors (the CS reuses the slices already
            // loaded); compensation applied once per output block.
            // Computed via whichever side of the dense/compressed
            // partition is shorter - full-sum minus complement is the
            // same exact int64 value as the direct sum.
            if (xd.identity || xd_full) {
                wsum = g.ttfull;
            } else if (2 * nxd >= kk) {
                wsum.fill(0);
                const std::uint32_t *cl = xd.clist(ng);
                const std::size_t nc = xd.ccount(ng);
                for (std::size_t t = 0; t < nc; ++t) {
                    const std::int32_t *tt = g.ttpack.data() + cl[t] * uv;
                    for (int i = 0; i < v; ++i)
                        wsum[static_cast<std::size_t>(i)] += tt[i];
                }
                for (int i = 0; i < v; ++i)
                    wsum[static_cast<std::size_t>(i)] =
                        g.ttfull[static_cast<std::size_t>(i)] -
                        wsum[static_cast<std::size_t>(i)];
            } else {
                wsum.fill(0);
                for (std::size_t t = 0; t < nxd; ++t) {
                    const std::int32_t *tt =
                        g.ttpack.data() + xlist[t] * uv;
                    for (int i = 0; i < v; ++i)
                        wsum[static_cast<std::size_t>(i)] += tt[i];
                }
            }
            for (int i = 0; i < v; ++i) {
                const std::int64_t comp =
                    g.bprow[static_cast<std::size_t>(i)] -
                    r_scaled * wsum[static_cast<std::size_t>(i)];
                std::int64_t *t = tile.data() + i * v;
                for (int j = 0; j < v; ++j)
                    t[j] += comp;
            }
        }

        // Single write-back of the micro-tile.
        for (int i = 0; i < v; ++i) {
            std::int64_t *arow =
                &acc(mg * uv + static_cast<std::size_t>(i), ng_off);
            const std::int64_t *t = tile.data() + i * v;
            for (int j = 0; j < v; ++j)
                arow[j] = t[j];
        }
    };

    for (std::size_t mb = mg0; mb < mg1; mb += block.size()) {
        const std::size_t nb = std::min(block.size(), mg1 - mb);
        for (std::size_t b = 0; b < nb; ++b)
            prepare(block[b], mb + b);
        for (std::size_t ng = 0; ng < n_groups; ++ng)
            for (std::size_t b = 0; b < nb; ++b)
                runTile(block[b], ng);
    }
}

} // namespace

ActivationOperand
prepareActivations(const MatrixI32 &codes, int k, std::int32_t zp,
                   const AqsConfig &cfg)
{
    ActivationOperand op;
    op.sliced = activationSliceMatrix(codes, k);
    op.r = static_cast<Slice>((zp >> (4 * k)) & 0xF);
    finishActivationOperand(op, cfg);
    return op;
}

ActivationOperand
prepareActivationsDbs(const MatrixI32 &codes, int lo_bits, Slice r,
                      const AqsConfig &cfg)
{
    ActivationOperand op;
    op.sliced = dbsSliceMatrix(codes, lo_bits);
    op.r = r;
    finishActivationOperand(op, cfg);
    return op;
}

namespace detail {

MatrixI64
blockedGemm(const SlicedMatrix &w, const MatrixU8 &w_mask,
            const MatrixI32 &w_total, const SlicedMatrix &x,
            const MatrixU8 &x_mask, Slice r, const AqsConfig &cfg,
            std::span<const std::uint8_t> xq_cache)
{
    const int v = cfg.v;
    const std::size_t m = w.rows();
    const std::size_t kk = w.cols();
    const std::size_t n = x.cols();
    const std::size_t m_groups = m / static_cast<std::size_t>(v);
    const std::size_t n_groups = n / static_cast<std::size_t>(v);
    const std::size_t x_levels = x.levels();

    // Activation-side skip lists, shared read-only by every band.
    SkipLists xd;
    if (cfg.actSkip == ActSkipMode::None)
        xd.identity = true;
    else
        xd = buildSkipLists(x_mask);

    // Micro-kernel row for the active ISA level, resolved once per
    // call: all variants are exact-integer and order-insensitive, so
    // the level changes throughput only, never results.
    const PairPassKernels &kern = pairPassKernels(activeIsaLevel());

    // Stream-vs-list decision for this call, also resolved once (the
    // policy lookup stays out of the per-pass loop). Every alternative
    // sums the same products, so the decision changes throughput only,
    // never results.
    const StreamDecision sd{activeStreamPolicy()};

    // Quad activation planes: precomputed by prepareActivations*,
    // rebuilt here for hand-built operands and the Sibia front end. The
    // byte size alone cannot tell a layout built for another v (it is
    // v-independent); the mask width pins it. Under ActSkipMode::None
    // the mask is never read (hand-built operands may leave it empty),
    // so nothing is masked.
    const std::size_t quad_size = x_levels * n_groups * quadCount(kk) *
                                  (4 * static_cast<std::size_t>(v));
    const bool cached = xq_cache.size() == quad_size &&
                        x_mask.rows() == kk && x_mask.cols() == n_groups;
    std::vector<std::uint8_t> xq_local;
    if (!cached)
        xq_local = quadSlicePlanes(
            x, v, cfg.actSkip == ActSkipMode::None ? nullptr : &x_mask);
    const std::uint8_t *xq = cached ? xq_cache.data() : xq_local.data();

    MatrixI64 acc(m, n);

    // Parallel over m-groups: bands own disjoint accumulator rows, so
    // the result is bit-identical for any thread count.
    parallelFor(0, m_groups, [&](std::size_t b, std::size_t e, int) {
        if (v == 4)
            blockedBand<4>(w, w_mask, w_total, x, r, cfg, kern, sd, xd, xq,
                           b, e, acc);
        else
            blockedBand<0>(w, w_mask, w_total, x, r, cfg, kern, sd, xd, xq,
                           b, e, acc);
    });
    return acc;
}

} // namespace detail

MatrixI64
aqsGemm(const WeightOperand &w, const ActivationOperand &x,
        const AqsConfig &cfg, AqsStats *stats)
{
    checkShapes(w, x, cfg.v);

    // Outside the blocked kernel's exact int32 domain (core/pair_pass.h)
    // the scalar reference runs instead.
    if (!detail::aqsBlockedKernelExact(w.sliced.cols(), cfg.v))
        return aqsGemmReference(w, x, cfg, stats);

    MatrixI64 acc = detail::blockedGemm(w.sliced, w.hoMask, w.totalCodes,
                                        x.sliced, x.hoMask, x.r, cfg,
                                        x.quadPlanes);
    // Statistics depend on the masks alone, never on the schedule that
    // ran: they are counted, not tallied in the band.
    if (stats)
        *stats += aqsCountStats(w, x, cfg);
    return acc;
}

MatrixI64
aqsGemmReference(const WeightOperand &w, const ActivationOperand &x,
                 const AqsConfig &cfg, AqsStats *stats)
{
    const std::size_t m = w.sliced.rows();
    const std::size_t kk = w.sliced.cols();
    const std::size_t n = x.sliced.cols();
    const int v = cfg.v;
    checkShapes(w, x, v);

    const std::size_t m_groups = m / static_cast<std::size_t>(v);
    const std::size_t n_groups = n / static_cast<std::size_t>(v);
    const std::size_t w_levels = w.sliced.levels();
    const std::size_t x_levels = x.sliced.levels();
    const int w_ho = static_cast<int>(w_levels) - 1;
    const int x_ho = static_cast<int>(x_levels) - 1;
    const int x_ho_shift = x.sliced.hoPlane().shift;
    const bool r_skip = cfg.actSkip == ActSkipMode::RValued;

    AqsStats local;
    local.denseOuterProducts =
        m_groups * n_groups * kk * w_levels * x_levels;
    local.macsPerOuterProduct = static_cast<double>(v) * v;

    MatrixI64 acc(m, n);

    // Offline term b' = r * 2^shift * (row sums of the total weight
    // codes): folded into the bias, zero runtime cost (Eq. (6)).
    std::vector<std::int64_t> b_prime;
    if (r_skip) {
        b_prime.assign(m, 0);
        for (std::size_t row = 0; row < m; ++row) {
            std::int64_t sum = 0;
            for (std::size_t k = 0; k < kk; ++k)
                sum += w.totalCodes(row, k);
            b_prime[row] = sum * (static_cast<std::int64_t>(x.r)
                                  << x_ho_shift);
        }
    }

    std::vector<std::int64_t> wsum(static_cast<std::size_t>(v));
    for (std::size_t mg = 0; mg < m_groups; ++mg) {
        for (std::size_t ng = 0; ng < n_groups; ++ng) {
            std::fill(wsum.begin(), wsum.end(), 0);

            for (std::size_t k = 0; k < kk; ++k) {
                const bool w_comp = w.hoMask(mg, k) != 0;
                const bool x_comp = x.hoMask(k, ng) != 0;

                if (r_skip) {
                    if (!x_comp) {
                        // Eq. (6): accumulate total weight columns for
                        // uncompressed activation vectors; the CS reuses
                        // slices loaded for the bit-slice products.
                        for (int i = 0; i < v; ++i)
                            wsum[static_cast<std::size_t>(i)] +=
                                w.totalCodes(
                                    mg * static_cast<std::size_t>(v) +
                                        static_cast<std::size_t>(i),
                                    k);
                        if (cfg.useEq6)
                            local.compAdds +=
                                static_cast<std::uint64_t>(v) * w_levels;
                    } else if (!cfg.useEq6) {
                        // Eq. (5): compressed columns must be re-loaded
                        // and summed explicitly.
                        local.compAdds +=
                            static_cast<std::uint64_t>(v) * w_levels;
                        local.compExtraEmaNibbles +=
                            static_cast<std::uint64_t>(v) * w_levels;
                    }
                }

                for (std::size_t wl = 0; wl < w_levels; ++wl) {
                    const bool w_is_ho = static_cast<int>(wl) == w_ho;
                    if (w_is_ho && w_comp) {
                        local.skippedOuterProducts += x_levels;
                        continue;
                    }
                    const SlicePlane &wp = w.sliced.planes[wl];
                    for (std::size_t xl = 0; xl < x_levels; ++xl) {
                        const bool x_is_ho = static_cast<int>(xl) == x_ho;
                        if (x_is_ho && x_comp &&
                            cfg.actSkip != ActSkipMode::None) {
                            ++local.skippedOuterProducts;
                            continue;
                        }
                        const SlicePlane &xp = x.sliced.planes[xl];
                        const int shift = wp.shift + xp.shift;
                        ++local.executedOuterProducts;
                        for (int i = 0; i < v; ++i) {
                            const std::int64_t ws =
                                wp.data(mg * v + i, k);
                            for (int j = 0; j < v; ++j) {
                                const std::int64_t xs =
                                    xp.data(k, ng * v + j);
                                acc(mg * v + i, ng * v + j) +=
                                    (ws * xs) << shift;
                            }
                        }
                    }
                }
            }

            if (r_skip) {
                // Compensation outer product (Eq. (6)): 16 multiplies
                // per 4x4 output block:
                //   comp = b' - r * 2^shift * wsum, broadcast over j.
                // When nothing was compressed the term is identically
                // zero (b' = r*sum over all K); hardware performs it
                // unconditionally, matching Table I's constant 16 Mul.
                const std::int64_t r_scaled =
                    static_cast<std::int64_t>(x.r) << x_ho_shift;
                local.compMults += static_cast<std::uint64_t>(v) *
                                   static_cast<std::uint64_t>(v);
                for (int i = 0; i < v; ++i) {
                    const std::int64_t comp =
                        b_prime[mg * v + i] -
                        r_scaled * wsum[static_cast<std::size_t>(i)];
                    for (int j = 0; j < v; ++j)
                        acc(mg * v + i, ng * v + j) += comp;
                }
            }
        }
    }

    // Multiply/add counts follow directly from executed outer products.
    local.mults = local.executedOuterProducts *
                  static_cast<std::uint64_t>(v) *
                  static_cast<std::uint64_t>(v);
    local.adds = local.mults;

    // HO entries per stream, one stream per weight m-band (a mask row)
    // and per activation n-band (a mask column; every vector is stored
    // under ActSkipMode::None, whose mask may be absent).
    std::uint64_t w_stored = 0;
    for (std::size_t mg = 0; mg < m_groups; ++mg)
        w_stored += rleStoredCount(w.hoMask.row(mg).data(), kk, 1,
                                   cfg.rleIndexBits);
    std::uint64_t x_stored = 0;
    for (std::size_t ng = 0; ng < n_groups; ++ng)
        x_stored += cfg.actSkip == ActSkipMode::None
                        ? kk
                        : rleStoredCount(x.hoMask.data().data() + ng, kk,
                                         x.hoMask.cols(), cfg.rleIndexBits);
    countTraffic(local, m, kk, w_levels, x_levels, n, cfg, w_stored,
                 x_stored);

    if (stats)
        *stats += local;
    return acc;
}

ActivationOperand
concatActivationOperands(std::span<const ActivationOperand *const> ops,
                         const AqsConfig &cfg)
{
    panic_if(ops.empty(), "concat requires at least one operand");
    const ActivationOperand &first = *ops.front();
    const std::size_t kk = first.sliced.rows();
    const std::size_t levels = first.sliced.levels();
    const std::size_t uv = static_cast<std::size_t>(cfg.v);
    const std::size_t kq = detail::quadCount(kk);
    const std::size_t pw = 4 * uv;

    std::size_t n_total = 0;
    bool have_quad = true;
    for (const ActivationOperand *op : ops) {
        const std::size_t n_op = op->sliced.cols();
        panic_if(op->sliced.rows() != kk || op->sliced.levels() != levels,
                 "concat operand shape mismatch: ", op->sliced.rows(),
                 "x", n_op, " levels ", op->sliced.levels(), " vs ", kk,
                 " levels ", levels);
        panic_if(n_op % uv != 0, "concat operand N ", n_op,
                 " not divisible by v=", cfg.v);
        panic_if(op->r != first.r,
                 "concat operands disagree on the skip value r");
        panic_if(op->hoMask.rows() != kk ||
                     op->hoMask.cols() != n_op / uv,
                 "concat operand mask malformed (prepare with "
                 "prepareActivations*)");
        for (std::size_t l = 0; l < levels; ++l)
            panic_if(op->sliced.planes[l].shift !=
                         first.sliced.planes[l].shift,
                     "concat operands disagree on plane shifts");
        n_total += n_op;
        have_quad = have_quad && op->quadPlanes.size() ==
                                     levels * (n_op / uv) * kq * pw;
    }
    const std::size_t g_total = n_total / uv;

    ActivationOperand out;
    out.r = first.r;
    out.sliced.signedSlices = first.sliced.signedSlices;
    out.sliced.sourceBits = first.sliced.sourceBits;
    out.sliced.loBits = first.sliced.loBits;
    out.sliced.planes.resize(levels);
    out.hoMask = MatrixU8(kk, g_total);

    // Slice planes + HO mask: row-wise block copies, parallel over K.
    // Chunks write disjoint row segments of pre-sized outputs, so the
    // result is byte-identical for any thread count.
    for (std::size_t l = 0; l < levels; ++l) {
        SlicePlane &plane = out.sliced.planes[l];
        plane.shift = first.sliced.planes[l].shift;
        plane.high = first.sliced.planes[l].high;
        plane.data = Matrix<Slice>(kk, n_total);
        parallelFor(0, kk, [&](std::size_t b, std::size_t e, int) {
            for (std::size_t k = b; k < e; ++k) {
                Slice *dst = plane.data.row(k).data();
                std::size_t off = 0;
                for (const ActivationOperand *op : ops) {
                    const auto src = op->sliced.planes[l].data.row(k);
                    std::copy(src.begin(), src.end(), dst + off);
                    off += src.size();
                }
            }
        });
    }
    parallelFor(0, kk, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t k = b; k < e; ++k) {
            std::uint8_t *dst = out.hoMask.row(k).data();
            std::size_t off = 0;
            for (const ActivationOperand *op : ops) {
                const auto src = op->hoMask.row(k);
                std::copy(src.begin(), src.end(), dst + off);
                off += src.size();
            }
        }
    });

    // The quad kernel operand: concatenable only when every source
    // carries it (hand-built operands may not), else the engine
    // rebuilds it on demand.
    if (have_quad) {
        // Quad layout is [level][n-group][quad][4v]: per level one
        // contiguous block per source operand.
        out.quadPlanes.resize(levels * g_total * kq * pw);
        for (std::size_t l = 0; l < levels; ++l) {
            std::uint8_t *dst =
                out.quadPlanes.data() + l * g_total * kq * pw;
            for (const ActivationOperand *op : ops) {
                const std::size_t g_op = op->sliced.cols() / uv;
                const std::uint8_t *src =
                    op->quadPlanes.data() + l * g_op * kq * pw;
                std::copy(src, src + g_op * kq * pw, dst);
                dst += g_op * kq * pw;
            }
        }
    }
    return out;
}

WeightCountingCache
buildWeightCountingCache(const WeightOperand &w, int v, int index_bits)
{
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t m_groups = w.sliced.rows() / uv;
    const std::size_t kk = w.sliced.cols();
    WeightCountingCache out;
    out.wcol.assign(kk, 0);
    out.indexBits = index_bits;
    for (std::size_t mg = 0; mg < m_groups; ++mg) {
        const std::uint8_t *wmask = w.hoMask.row(mg).data();
        RleEntryCounter entries(index_bits);
        for (std::size_t k = 0; k < kk; ++k) {
            entries.add(wmask[k] != 0);
            if (wmask[k] == 0) {
                ++out.wdSum;
                ++out.wcol[k];
            }
        }
        out.wStored += entries.stored();
    }
    return out;
}

namespace {

/** Precondition of the cached counting entry points. */
void
checkWeightCountingCache(const WeightOperand &w, const AqsConfig &cfg,
                         const WeightCountingCache &wcache)
{
    panic_if(wcache.wcol.size() != w.sliced.cols(),
             "weight counting cache covers ", wcache.wcol.size(),
             " steps, operand has ", w.sliced.cols());
    panic_if(wcache.indexBits != cfg.rleIndexBits,
             "weight counting cache counts ", wcache.indexBits,
             "-bit RLE indices, configuration has ", cfg.rleIndexBits);
}

AqsStats
countStatsRange(const WeightOperand &w, const ActivationOperand &x,
                const AqsConfig &cfg, const WeightCountingCache &w_counts,
                std::size_t ng_begin, std::size_t ng_end)
{
    const int v = cfg.v;
    const std::size_t m = w.sliced.rows();
    const std::size_t kk = w.sliced.cols();
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t m_groups = m / uv;
    const std::size_t n_groups = ng_end - ng_begin;
    const std::size_t w_levels = w.sliced.levels();
    const std::size_t x_levels = x.sliced.levels();
    const bool x_identity = cfg.actSkip == ActSkipMode::None;
    const bool r_skip = cfg.actSkip == ActSkipMode::RValued;
    const std::uint64_t wd_sum = w_counts.wdSum;

    // Activation side over the requested column bands: dense-step
    // counts, the intersection sum over all (mg, ng) tiles and the HO
    // RLE entries of each band's stream. Under ActSkipMode::None every
    // vector is dense and stored.
    std::uint64_t nxd_sum = 0;
    std::uint64_t inter_sum = 0;
    std::uint64_t x_stored = 0;
    if (x_identity) {
        nxd_sum = static_cast<std::uint64_t>(n_groups) * kk;
        inter_sum = static_cast<std::uint64_t>(n_groups) * wd_sum;
        x_stored = nxd_sum;
    } else {
        for (std::size_t ng = ng_begin; ng < ng_end; ++ng) {
            RleEntryCounter entries(cfg.rleIndexBits);
            for (std::size_t k = 0; k < kk; ++k) {
                const bool comp = x.hoMask(k, ng) != 0;
                entries.add(comp);
                if (!comp) {
                    ++nxd_sum;
                    inter_sum += w_counts.wcol[k];
                }
            }
            x_stored += entries.stored();
        }
    }

    AqsStats local;
    local.denseOuterProducts = m_groups * n_groups * kk * w_levels *
                               x_levels;
    local.macsPerOuterProduct = static_cast<double>(v) * v;

    // Per (mg, ng) tile the kernels run (w_levels-1)(x_levels-1) full
    // passes, (x_levels-1) weight-list passes, (w_levels-1)
    // activation-list passes and one intersection pass; summed in
    // closed form here (wd_sum and inter_sum are already summed over
    // m-bands, nxd_sum over column bands).
    local.executedOuterProducts =
        static_cast<std::uint64_t>(m_groups) * n_groups *
            (w_levels - 1) * (x_levels - 1) * kk +
        static_cast<std::uint64_t>(n_groups) * (x_levels - 1) * wd_sum +
        static_cast<std::uint64_t>(m_groups) * (w_levels - 1) * nxd_sum +
        inter_sum;
    local.skippedOuterProducts =
        local.denseOuterProducts - local.executedOuterProducts;
    local.mults = local.executedOuterProducts *
                  static_cast<std::uint64_t>(v) *
                  static_cast<std::uint64_t>(v);
    local.adds = local.mults;

    if (r_skip) {
        local.compMults = static_cast<std::uint64_t>(m_groups) *
                          n_groups * static_cast<std::uint64_t>(v) *
                          static_cast<std::uint64_t>(v);
        if (cfg.useEq6) {
            local.compAdds = static_cast<std::uint64_t>(m_groups) *
                             static_cast<std::uint64_t>(v) * w_levels *
                             nxd_sum;
        } else {
            const std::uint64_t n_xc =
                static_cast<std::uint64_t>(n_groups) * kk - nxd_sum;
            local.compAdds = static_cast<std::uint64_t>(m_groups) *
                             static_cast<std::uint64_t>(v) * w_levels *
                             n_xc;
            local.compExtraEmaNibbles = local.compAdds;
        }
    }

    countTraffic(local, m, kk, w_levels, x_levels, n_groups * uv, cfg,
                 w_counts.wStored, x_stored);
    return local;
}

} // namespace

AqsStats
aqsCountStats(const WeightOperand &w, const ActivationOperand &x,
              const AqsConfig &cfg, std::size_t ng_begin,
              std::size_t ng_end)
{
    return aqsCountStats(w, x, cfg,
                         buildWeightCountingCache(w, cfg.v,
                                                  cfg.rleIndexBits),
                         ng_begin, ng_end);
}

AqsStats
aqsCountStats(const WeightOperand &w, const ActivationOperand &x,
              const AqsConfig &cfg, const WeightCountingCache &wcache,
              std::size_t ng_begin, std::size_t ng_end)
{
    checkShapes(w, x, cfg.v);
    const std::size_t uv = static_cast<std::size_t>(cfg.v);
    const std::size_t n_groups_all = x.sliced.cols() / uv;
    if (ng_end > n_groups_all)
        ng_end = n_groups_all;
    panic_if(ng_begin > ng_end, "aqsCountStats range [", ng_begin, ", ",
             ng_end, ") is inverted");
    checkWeightCountingCache(w, cfg, wcache);
    return countStatsRange(w, x, cfg, wcache, ng_begin, ng_end);
}

std::vector<AqsStats>
aqsCountStatsBatch(const WeightOperand &w, const ActivationOperand &x,
                   const AqsConfig &cfg,
                   std::span<const std::size_t> group_offsets)
{
    return aqsCountStatsBatch(
        w, x, cfg, buildWeightCountingCache(w, cfg.v, cfg.rleIndexBits),
        group_offsets);
}

std::vector<AqsStats>
aqsCountStatsBatch(const WeightOperand &w, const ActivationOperand &x,
                   const AqsConfig &cfg, const WeightCountingCache &wcache,
                   std::span<const std::size_t> group_offsets)
{
    checkShapes(w, x, cfg.v);
    panic_if(group_offsets.size() < 2,
             "aqsCountStatsBatch needs at least one range");
    const std::size_t uv = static_cast<std::size_t>(cfg.v);
    const std::size_t n_groups_all = x.sliced.cols() / uv;
    panic_if(group_offsets.back() > n_groups_all,
             "aqsCountStatsBatch offsets exceed N/v=", n_groups_all);
    checkWeightCountingCache(w, cfg, wcache);
    std::vector<AqsStats> out;
    out.reserve(group_offsets.size() - 1);
    for (std::size_t i = 0; i + 1 < group_offsets.size(); ++i) {
        panic_if(group_offsets[i] > group_offsets[i + 1],
                 "aqsCountStatsBatch offsets not monotone");
        out.push_back(countStatsRange(w, x, cfg, wcache,
                                      group_offsets[i],
                                      group_offsets[i + 1]));
    }
    return out;
}

} // namespace panacea
