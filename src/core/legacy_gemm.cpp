#include "core/legacy_gemm.h"

#include <algorithm>
#include <utility>

#include "core/aqs_gemm.h"
#include "core/pair_pass.h"
#include "slicing/sparsity.h"
#include "util/logging.h"

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
    skippedWeightSide = other.skippedWeightSide;
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

    MatrixU8 w_mask = weightVectorMask(w.hoPlane().data, v);
    MatrixU8 x_mask = activationVectorMask(x.hoPlane().data, v, 0);

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

    // Sibia is the AQS-GEMM with r = 0, no compensation and one-sided
    // skipping: the skipped side keeps its mask, the other runs
    // all-dense (an all-zero mask). Each compressed weight vector skips
    // its HO_w pass against every activation plane of every n-group,
    // each compressed activation vector its HO_x pass against every
    // weight plane of every m-group.
    const MatrixU8 &skipped_mask = skip_weight ? w_mask : x_mask;
    const std::uint64_t compressed = static_cast<std::uint64_t>(
        std::count_if(skipped_mask.data().begin(),
                      skipped_mask.data().end(),
                      [](std::uint8_t c) { return c != 0; }));
    local.skippedOuterProducts =
        compressed * (skip_weight ? n_groups * x_levels
                                  : m_groups * w_levels);
    local.executedOuterProducts =
        local.denseOuterProducts - local.skippedOuterProducts;
    if (skip_weight)
        x_mask = MatrixU8(kk, n_groups, 0);
    else
        w_mask = MatrixU8(m_groups, kk, 0);

    AqsConfig cfg;
    cfg.v = v;
    cfg.actSkip = skip_weight ? ActSkipMode::None : ActSkipMode::ZeroOnly;

    MatrixI64 acc;
    if (detail::aqsBlockedKernelExact(kk, v)) {
        acc = detail::blockedGemm(w, w_mask, MatrixI32{}, x, x_mask, 0,
                                  cfg);
    } else {
        // Outside the blocked band's exact int32 domain
        // (core/pair_pass.h) the AQS scalar reference runs.
        WeightOperand w_op;
        w_op.sliced = w;
        w_op.hoMask = std::move(w_mask);
        ActivationOperand x_op;
        x_op.sliced = x;
        x_op.hoMask = std::move(x_mask);
        acc = aqsGemmReference(w_op, x_op, cfg);
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
