#include "core/legacy_gemm.h"

#include <array>
#include <vector>

#include "core/kernel_cost_model.h"
#include "core/operand_pack.h"
#include "core/pair_pass.h"
#include "slicing/sparsity.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace panacea {

double
LegacyStats::macReduction() const
{
    if (denseOuterProducts == 0 || macsPerOuterProduct <= 0.0)
        return 0.0;
    return 1.0 - static_cast<double>(mults) /
                     (static_cast<double>(denseOuterProducts) *
                      macsPerOuterProduct);
}

LegacyStats &
LegacyStats::operator+=(const LegacyStats &other)
{
    // Dense-OP-weighted blend keeps the macReduction() denominator
    // exact when merging runs with different vector lengths.
    const double d_old = static_cast<double>(denseOuterProducts);
    const double d_other = static_cast<double>(other.denseOuterProducts);
    if (d_old + d_other > 0.0)
        macsPerOuterProduct = (macsPerOuterProduct * d_old +
                               other.macsPerOuterProduct * d_other) /
                              (d_old + d_other);
    denseOuterProducts += other.denseOuterProducts;
    executedOuterProducts += other.executedOuterProducts;
    skippedOuterProducts += other.skippedOuterProducts;
    mults += other.mults;
    adds += other.adds;
    emaNibbles += other.emaNibbles;
    // Sparsities of merged records: keep the weighted blend by dense OPs
    // so model-level aggregation stays meaningful.
    double w_total = static_cast<double>(denseOuterProducts);
    if (w_total > 0.0) {
        double w_old = w_total - static_cast<double>(
            other.denseOuterProducts);
        rhoW = (rhoW * w_old + other.rhoW *
                static_cast<double>(other.denseOuterProducts)) / w_total;
        rhoX = (rhoX * w_old + other.rhoX *
                static_cast<double>(other.denseOuterProducts)) / w_total;
    }
    return *this;
}

namespace {

/** Integer counters of one parallel band (exact sums, reduced later). */
struct LegacyBandCounters
{
    std::uint64_t executed = 0;
    std::uint64_t skipped = 0;
};

/**
 * Scalar band fallback for vector lengths beyond the static micro-tile
 * bound (v > 16) and for reduction depths beyond the int32 pair-
 * accumulator guard: the original per-element loop nest, band-
 * partitioned so it still runs under the pool.
 */
void
legacyBandScalar(const SlicedMatrix &w, const SlicedMatrix &x, int v,
                 bool skip_weight, const MatrixU8 &w_mask,
                 const MatrixU8 &x_mask_t, std::size_t mg0,
                 std::size_t mg1, MatrixI64 &acc,
                 LegacyBandCounters &counters)
{
    const std::size_t kk = w.cols();
    const std::size_t n = x.cols();
    const std::size_t w_levels = w.levels();
    const std::size_t x_levels = x.levels();
    const std::size_t w_ho = w_levels - 1;
    const std::size_t x_ho = x_levels - 1;

    for (std::size_t mg = mg0; mg < mg1; ++mg) {
        for (std::size_t ng = 0; ng < n / v; ++ng) {
            for (std::size_t k = 0; k < kk; ++k) {
                const bool w_comp = skip_weight && w_mask(mg, k) != 0;
                const bool x_comp = !skip_weight && x_mask_t(ng, k) != 0;
                for (std::size_t wl = 0; wl < w_levels; ++wl) {
                    if (w_comp && wl == w_ho) {
                        counters.skipped += x_levels;
                        continue;
                    }
                    const SlicePlane &wp = w.planes[wl];
                    for (std::size_t xl = 0; xl < x_levels; ++xl) {
                        if (x_comp && xl == x_ho) {
                            ++counters.skipped;
                            continue;
                        }
                        const SlicePlane &xp = x.planes[xl];
                        const int shift = wp.shift + xp.shift;
                        ++counters.executed;
                        for (int i = 0; i < v; ++i) {
                            const std::int64_t ws = wp.data(mg * v + i, k);
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
        }
    }
}

/**
 * Register-blocked band [mg0, mg1) of the legacy bit-slice GEMM: the
 * same packed-operand, skip-list-driven pair-pass structure as the AQS
 * kernel (core/pair_pass.h), but with the single-sided zero-vector
 * skipping of Sibia and no compensation. Per m-group the v weight rows
 * of every slice plane are packed into a widened int16 [k][i] tile;
 * per (mg, ng) tile one pair pass runs per (weight-plane,
 * activation-plane) combination - the weight skip list when the HO
 * weight plane participates under weight-side skipping, the activation
 * skip list when the HO activation plane participates under
 * activation-side skipping, all steps otherwise. Pair sums accumulate
 * unshifted in int32 (|product| <= 64, guarded in legacyBitsliceGemm)
 * and merge into the int64 micro-tile with their positional shift.
 * Counters fall out of the list lengths, so results and statistics are
 * bit-identical to the scalar band for any thread count or ISA level.
 */
template <int VT>
void
legacyBand(const SlicedMatrix &w, const SlicedMatrix &x, int v_in,
           bool skip_weight, const MatrixU8 &w_mask,
           const detail::SkipLists &xd, const std::int16_t *x16,
           const std::int16_t *xq, const detail::PairPassKernels &kern,
           const detail::StreamDecision &sd, std::size_t mg0,
           std::size_t mg1, MatrixI64 &acc,
           LegacyBandCounters &counters)
{
    const int v = VT > 0 ? VT : v_in;
    constexpr int TV = VT > 0 ? VT : 16;
    panic_if(v > TV, "legacy blocked kernel supports v <= ", TV);
    const std::size_t uv = static_cast<std::size_t>(v);

    const std::size_t kk = w.cols();
    const std::size_t n = x.cols();
    const std::size_t n_groups = n / uv;
    const std::size_t w_levels = w.levels();
    const std::size_t x_levels = x.levels();
    const std::size_t w_ho = w_levels - 1;
    const std::size_t x_ho = x_levels - 1;
    const std::uint64_t dense_per_tile =
        static_cast<std::uint64_t>(kk) * w_levels * x_levels;

    std::vector<const std::int16_t *> xbase(x_levels);
    std::vector<int> xshift(x_levels);
    for (std::size_t xl = 0; xl < x_levels; ++xl) {
        xbase[xl] = x16 + xl * kk * n;
        xshift[xl] = x.planes[xl].shift;
    }

    // Streaming fast path (SSE2+ generic-v, AVX2+ for v = 4): dense
    // masked passes over the pre-interleaved operands replace skip-list
    // gathers whenever the stream decision `sd` (resolved once per
    // GEMM call; see core/kernel_cost_model.h) predicts the stream
    // cheaper; stats always come from the list lengths, so the choice
    // never changes results or counters.
    const bool stream_ok =
        xq != nullptr && detail::streamKernelsRunnable(kern, v);
    const std::size_t kkp = detail::pairCount(kk);
    const std::size_t pw = 2 * uv;

    // Per-band scratch, allocated once and reused for every m-group.
    std::vector<std::int16_t> wpack(w_levels * kk * uv);
    std::vector<std::int16_t> wq, wqm;
    std::vector<std::uint32_t> wd;
    wd.reserve(kk);
    std::array<std::int32_t, TV * TV> pacc;
    std::array<std::int64_t, TV * TV> tile;

    for (std::size_t mg = mg0; mg < mg1; ++mg) {
        // Weight-side skip list: dense reduction steps for this band.
        wd.clear();
        bool wd_full = true;
        if (skip_weight) {
            const std::uint8_t *wmask = w_mask.row(mg).data();
            for (std::size_t k = 0; k < kk; ++k)
                if (wmask[k] == 0)
                    wd.push_back(static_cast<std::uint32_t>(k));
            wd_full = wd.size() == kk;
        }

        // Pack the band's weight rows, widened: wpack[(wl*kk + k)*v + i].
        for (std::size_t wl = 0; wl < w_levels; ++wl) {
            const Slice *base = w.planes[wl].data.data().data();
            std::int16_t *dst = wpack.data() + wl * kk * uv;
            for (int i = 0; i < v; ++i) {
                const Slice *src =
                    base + (mg * uv + static_cast<std::size_t>(i)) * kk;
                for (std::size_t k = 0; k < kk; ++k)
                    dst[k * uv + static_cast<std::size_t>(i)] = src[k];
            }
        }

        // Paired-stream weight operands (unmasked + masked HO when a
        // streamed HO_w pass could read it; see operand_pack.h).
        if (stream_ok)
            detail::packStreamWeightOperands(
                w, mg, v,
                skip_weight ? w_mask.row(mg).data() : nullptr,
                skip_weight ? wd.size() : kk, sd, wq, wqm);

        for (std::size_t ng = 0; ng < n_groups; ++ng) {
            const std::uint32_t *xlist =
                skip_weight ? nullptr : xd.list(ng);
            const std::size_t nxd = skip_weight ? kk : xd.count(ng);
            const bool xd_full = nxd == kk;
            const std::size_t ng_off = ng * uv;

            tile.fill(0);
            std::uint64_t executed = 0;

            for (std::size_t wl = 0; wl < w_levels; ++wl) {
                const std::int16_t *wp = wpack.data() + wl * kk * uv;
                const int w_shift = w.planes[wl].shift;
                for (std::size_t xl = 0; xl < x_levels; ++xl) {
                    // Skipping is legal whenever the *skipped operand's*
                    // HO slice participates: the product is then zero.
                    const std::uint32_t *ks;
                    std::size_t nk;
                    bool identity;
                    if (skip_weight && wl == w_ho) {
                        ks = wd_full ? nullptr : wd.data();
                        nk = wd_full ? kk : wd.size();
                        identity = wd_full;
                    } else if (!skip_weight && xl == x_ho) {
                        ks = xd_full ? nullptr : xlist;
                        nk = nxd;
                        identity = xd_full;
                    } else {
                        ks = nullptr;
                        nk = kk;
                        identity = true;
                    }

                    if (stream_ok && sd.profitable(nk, kk)) {
                        const std::int16_t *wqp =
                            (skip_weight && wl == w_ho && !wd_full)
                                ? wqm.data()
                                : wq.data() + wl * kkp * pw;
                        const std::int16_t *xqp =
                            xq + (xl * n_groups + ng) * kkp * pw;
                        if constexpr (VT == 4)
                            kern.stream4(wqp, xqp, kkp, pacc.data());
                        else
                            kern.streamGeneric(wqp, xqp, kkp, v,
                                               pacc.data());
                    } else if constexpr (VT == 4) {
                        kern.pass4(wp, xbase[xl], n, ng_off, ks, nk,
                                   identity, pacc.data());
                    } else {
                        kern.passGeneric(wp, xbase[xl], n, ng_off, ks,
                                         nk, identity, v, pacc.data());
                    }
                    executed += nk;

                    const int shift = w_shift + xshift[xl];
                    for (int e = 0; e < v * v; ++e)
                        tile[static_cast<std::size_t>(e)] +=
                            static_cast<std::int64_t>(
                                pacc[static_cast<std::size_t>(e)])
                            << shift;
                }
            }

            counters.executed += executed;
            counters.skipped += dense_per_tile - executed;

            for (int i = 0; i < v; ++i) {
                std::int64_t *arow =
                    &acc(mg * uv + static_cast<std::size_t>(i), ng_off);
                const std::int64_t *t = tile.data() + i * v;
                for (int j = 0; j < v; ++j)
                    arow[j] = t[j];
            }
        }
    }
}

} // namespace

MatrixI64
legacyBitsliceGemm(const SlicedMatrix &w, const SlicedMatrix &x, int v,
                   SibiaSkipSide side, LegacyStats *stats)
{
    const std::size_t m = w.rows();
    const std::size_t kk = w.cols();
    const std::size_t n = x.cols();
    panic_if(x.rows() != kk, "legacy GEMM shape mismatch");
    panic_if(m % v != 0 || n % v != 0,
             "legacy GEMM needs M and N divisible by v=", v);

    const MatrixU8 w_mask = weightVectorMask(w.hoPlane().data, v);
    const MatrixU8 x_mask = activationVectorMask(x.hoPlane().data, v, 0);

    LegacyStats local;
    local.rhoW = maskDensityOfOnes(w_mask);
    local.rhoX = maskDensityOfOnes(x_mask);
    local.macsPerOuterProduct = static_cast<double>(v) * v;

    bool skip_weight;
    switch (side) {
      case SibiaSkipSide::Weight:     skip_weight = true; break;
      case SibiaSkipSide::Activation: skip_weight = false; break;
      case SibiaSkipSide::Auto:
      default:
        skip_weight = local.rhoW >= local.rhoX;
        break;
    }
    local.skippedWeightSide = skip_weight;

    const std::size_t w_levels = w.levels();
    const std::size_t x_levels = x.levels();
    const std::size_t m_groups = m / static_cast<std::size_t>(v);
    const std::size_t n_groups = n / static_cast<std::size_t>(v);
    local.denseOuterProducts =
        m_groups * n_groups * kk * w_levels * x_levels;

    MatrixI64 acc(m, n);

    // Outside the blocked band's exact int32 domain (core/pair_pass.h)
    // the scalar band (int64 accumulation, identical counters) runs.
    const bool blocked = detail::legacyBlockedKernelExact(kk, v);

    // Operands of the blocked path: activation-side skip lists, the
    // int16 widened activation planes, and the ISA-dispatched
    // micro-kernel row (see core/pair_pass.h).
    detail::SkipLists xd;
    std::vector<std::int16_t> x16;
    if (blocked) {
        if (!skip_weight)
            xd = detail::buildSkipLists(x_mask);
        x16 = detail::widenSlicePlanes(x);
    }
    const detail::PairPassKernels &kern =
        detail::pairPassKernels(activeIsaLevel());

    // Stream-vs-gather decision for this call, resolved once like the
    // kernel row above (see core/kernel_cost_model.h).
    const detail::StreamDecision sd = detail::streamDecision(
        kern.level, v == 4 ? detail::KernelFamily::Pass4
                           : detail::KernelFamily::Generic);

    // Paired-stream activation planes for the streaming passes (v = 4
    // from AVX2 up, generic-v from SSE2 up); the HO plane is pre-masked
    // only under activation-side skipping. Skipped outright when the
    // policy forces gathers.
    std::vector<std::int16_t> xq;
    const bool have_stream =
        sd.policy != StreamPolicy::Gather &&
        detail::streamKernelsRunnable(kern, v);
    if (blocked && have_stream)
        xq = detail::pairedSlicePlanes(x, v,
                                       skip_weight ? nullptr : &x_mask);

    // The transposed activation mask is only dereferenced by the
    // scalar fallback band on the activation-skip path.
    MatrixU8 x_mask_t;
    if (!blocked && !skip_weight) {
        x_mask_t = MatrixU8(n_groups, kk);
        for (std::size_t k = 0; k < kk; ++k)
            for (std::size_t ng = 0; ng < n_groups; ++ng)
                x_mask_t(ng, k) = x_mask(k, ng);
    }

    // Parallel over m-groups (disjoint accumulator rows); the per-band
    // counters are exact integer sums, so results and statistics are
    // bit-identical for any thread count.
    const int chunks = parallelChunkCount(m_groups);
    std::vector<LegacyBandCounters> partial(
        static_cast<std::size_t>(chunks));
    parallelFor(0, m_groups, [&](std::size_t b, std::size_t e, int c) {
        LegacyBandCounters &part = partial[static_cast<std::size_t>(c)];
        if (!blocked)
            legacyBandScalar(w, x, v, skip_weight, w_mask, x_mask_t, b,
                             e, acc, part);
        else if (v == 4)
            legacyBand<4>(w, x, v, skip_weight, w_mask, xd, x16.data(),
                          xq.empty() ? nullptr : xq.data(), kern, sd, b,
                          e, acc, part);
        else
            legacyBand<0>(w, x, v, skip_weight, w_mask, xd, x16.data(),
                          xq.empty() ? nullptr : xq.data(), kern, sd, b,
                          e, acc, part);
    });
    for (const LegacyBandCounters &part : partial) {
        local.executedOuterProducts += part.executed;
        local.skippedOuterProducts += part.skipped;
    }

    local.mults = local.executedOuterProducts *
                  static_cast<std::uint64_t>(v) *
                  static_cast<std::uint64_t>(v);
    local.adds = local.mults;
    // Sibia ships uncompressed operands from DRAM: bits/4 nibbles each.
    local.emaNibbles =
        (static_cast<std::uint64_t>(m) * kk * w.sourceBits +
         static_cast<std::uint64_t>(kk) * n * x.sourceBits) / 4;

    if (stats)
        *stats += local;
    return acc;
}

} // namespace panacea
