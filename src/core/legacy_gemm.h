/**
 * @file
 * The previous-generation bit-slice GEMM of Sibia (paper §II-B, Fig. 4):
 * symmetric quantization on both operands, SBR slicing on both, and
 * skipping of all-zero HO slice-vectors on ONE operand side (hardware
 * exploits max(rho_w, rho_x), not both). No compensation is needed since
 * the skipped value is zero.
 *
 * The paper presents Sibia as a special case of AQS-GEMM - r = 0, no
 * Eq. (5)/(6) compensation, all-zero HO vectors compressed on one side
 * only - and so does the code: legacyBitsliceGemm is a front end of the
 * AQS band (detail::blockedGemm in core/aqs_gemm.h). It is both the
 * functional reference for the Sibia baseline simulator and the
 * "previous bit-slice GEMM" series of Fig. 5(b) and Fig. 14.
 */

#ifndef PANACEA_CORE_LEGACY_GEMM_H
#define PANACEA_CORE_LEGACY_GEMM_H

#include <cstdint>

#include "slicing/slice_tensor.h"
#include "util/matrix.h"

namespace panacea {

/** Which operand's zero HO vectors the legacy engine skips. */
enum class SibiaSkipSide
{
    Weight,
    Activation,
    Auto,   ///< pick the side with the larger HO vector sparsity
};

/** Execution statistics of one legacy bit-slice GEMM call. */
struct LegacyStats
{
    std::uint64_t denseOuterProducts = 0;
    std::uint64_t executedOuterProducts = 0;
    std::uint64_t skippedOuterProducts = 0;
    std::uint64_t mults = 0;
    std::uint64_t adds = 0;
    std::uint64_t emaNibbles = 0;  ///< dense DRAM format (no compression)
    double macsPerOuterProduct = 16.0; ///< v * v (dense-OP-weighted merge)
    double rhoW = 0.0;             ///< measured weight HO vector sparsity
    double rhoX = 0.0;             ///< measured activation HO vector sparsity
    bool skippedWeightSide = false; ///< side of the last merged call

    /** Fraction of dense bit-slice MACs eliminated. */
    double macReduction() const;

    /** Accumulate another stats record. */
    LegacyStats &operator+=(const LegacyStats &other);
};

/**
 * Execute the legacy bit-slice GEMM on SBR-sliced operands.
 *
 * The skipped side keeps its HO mask and the other side runs all-dense:
 * weight-side skipping runs the activations as ActSkipMode::None,
 * activation-side skipping an all-zero weight mask and ZeroOnly
 * activations. Executed/skipped counts come from the number of
 * compressed vectors on the skipped side, in closed form.
 *
 * Preconditions: M and N divisible by v; x.rows() == w.cols(). The
 * blocked band runs for v <= 16 and K < 2^22 (aqsBlockedKernelExact,
 * the AQS band's int32 pair-accumulator exactness domain) and the AQS
 * scalar reference outside it. Parallel over the shared pool and
 * vectorized per the active ISA level (util/cpu_features.h); results
 * and statistics are bit-identical for every thread count and ISA
 * level, and always equal the dense intGemm of the reconstructed codes
 * (parity-checked in tests/test_kernel_parity.cpp).
 *
 * @param w SBR-sliced symmetric weight codes (M x K)
 * @param x SBR-sliced symmetric activation codes (K x N)
 * @param v slice-vector length
 * @param side which operand's sparsity to exploit
 * @return the bit-exact integer accumulator W * x.
 */
MatrixI64 legacyBitsliceGemm(const SlicedMatrix &w, const SlicedMatrix &x,
                             int v, SibiaSkipSide side,
                             LegacyStats *stats = nullptr);

} // namespace panacea

#endif // PANACEA_CORE_LEGACY_GEMM_H
