/**
 * @file
 * Parity tests for the register-blocked, multi-threaded AQS-GEMM kernel:
 * aqsGemm() must reproduce the retained scalar reference
 * (aqsGemmReference) bit-for-bit - accumulator AND statistics counters -
 * across every ActSkipMode, SBR and DBS slicing, the Eq. (5)/(6)
 * variants, non-default vector lengths, 1/2/4/8 pool threads, AND every
 * runnable ISA level (scalar/SSE2/AVX2/AVX-512/AVX512-VNNI): the
 * dispatch table of core/pair_pass.h may change throughput only, never
 * a single bit of results or statistics. Hosts without VNNI skip (not
 * fail) the explicit VNNI axis; the runnableIsaLevels() sweeps cover it
 * automatically wherever it is available. Reduction lengths that
 * straddle the kernels' 64-bit dense-step bitset words, under forced
 * stream, forced gather and measured dispatch, and the exactness-guard
 * boundaries (K, v) that route aqsGemm to the reference are pinned too,
 * and so are worst-case slice products at K = 2^22 - 1, streamed and
 * listed, the limit of the int32 lanes and the quad kernels' int16
 * pair sums.
 * The Sibia front end (legacyBitsliceGemm), which runs on the same band,
 * rides along those loops against the dense intGemm.
 */

#include <array>
#include <limits>
#include <optional>
#include <utility>

#include <gtest/gtest.h>

#include "core/aqs_gemm.h"
#include "core/legacy_gemm.h"
#include "core/operand_pack.h"
#include "core/pair_pass.h"
#include "quant/gemm_quant.h"
#include "isa_guard.h"
#include "policy_guard.h"
#include "pool_guard.h"
#include "slicing/sbr.h"
#include "slicing/sparsity.h"
#include "slicing/straightforward.h"
#include "util/cpu_features.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace panacea {
namespace {

MatrixI32
randomWeightCodes(Rng &rng, std::size_t m, std::size_t k, int n,
                  double near_zero_bias = 0.5)
{
    const int bits = sbrBits(n);
    const std::int32_t lo = -(1 << (bits - 1));
    const std::int32_t hi = (1 << (bits - 1)) - 1;
    const std::int32_t narrow = (1 << std::max(1, bits - 4)) - 1;
    MatrixI32 codes(m, k);
    for (auto &c : codes.data()) {
        if (rng.bernoulli(near_zero_bias))
            c = static_cast<std::int32_t>(rng.uniformInt(-narrow, narrow));
        else
            c = static_cast<std::int32_t>(rng.uniformInt(lo, hi));
    }
    return codes;
}

MatrixI32
randomActivationCodes(Rng &rng, std::size_t k, std::size_t n, int bits,
                      std::int32_t zp, double cluster_bias = 0.6)
{
    const std::int32_t hi = (1 << bits) - 1;
    MatrixI32 codes(k, n);
    for (auto &c : codes.data()) {
        if (rng.bernoulli(cluster_bias)) {
            auto v = zp + rng.uniformInt(-6, 6);
            c = static_cast<std::int32_t>(
                std::clamp<std::int64_t>(v, 0, hi));
        } else {
            c = static_cast<std::int32_t>(rng.uniformInt(0, hi));
        }
    }
    return codes;
}

void
expectStatsEqual(const AqsStats &a, const AqsStats &b)
{
    EXPECT_EQ(a.denseOuterProducts, b.denseOuterProducts);
    EXPECT_EQ(a.executedOuterProducts, b.executedOuterProducts);
    EXPECT_EQ(a.skippedOuterProducts, b.skippedOuterProducts);
    EXPECT_EQ(a.mults, b.mults);
    EXPECT_EQ(a.adds, b.adds);
    EXPECT_EQ(a.compMults, b.compMults);
    EXPECT_EQ(a.compAdds, b.compAdds);
    EXPECT_EQ(a.compExtraEmaNibbles, b.compExtraEmaNibbles);
    EXPECT_EQ(a.wNibbles, b.wNibbles);
    EXPECT_EQ(a.xNibbles, b.xNibbles);
    EXPECT_EQ(a.wIndexBits, b.wIndexBits);
    EXPECT_EQ(a.xIndexBits, b.xIndexBits);
    EXPECT_EQ(a.denseNibbles, b.denseNibbles);
    EXPECT_DOUBLE_EQ(a.macsPerOuterProduct, b.macsPerOuterProduct);
}

void
expectLegacyStatsEqual(const LegacyStats &a, const LegacyStats &b)
{
    EXPECT_EQ(a.denseOuterProducts, b.denseOuterProducts);
    EXPECT_EQ(a.executedOuterProducts, b.executedOuterProducts);
    EXPECT_EQ(a.skippedOuterProducts, b.skippedOuterProducts);
    EXPECT_EQ(a.mults, b.mults);
    EXPECT_EQ(a.adds, b.adds);
    EXPECT_EQ(a.emaNibbles, b.emaNibbles);
    EXPECT_DOUBLE_EQ(a.rhoW, b.rhoW);
    EXPECT_DOUBLE_EQ(a.rhoX, b.rhoX);
    EXPECT_EQ(a.skippedWeightSide, b.skippedWeightSide);
}

/**
 * Run legacyBitsliceGemm on both skip sides under the current ISA,
 * policy and pool width: the result must equal `dense`, and the stats
 * must equal the first run recorded per side in `base` (filled on the
 * first call), i.e. be identical across ISA level and thread count.
 */
void
expectLegacyMatchesDense(const SlicedMatrix &ws, const SlicedMatrix &xs,
                         int v, const MatrixI64 &dense,
                         std::array<std::optional<LegacyStats>, 2> &base)
{
    const SibiaSkipSide sides[] = {SibiaSkipSide::Weight,
                                   SibiaSkipSide::Activation};
    for (std::size_t i = 0; i < 2; ++i) {
        LegacyStats st;
        EXPECT_TRUE(legacyBitsliceGemm(ws, xs, v, sides[i], &st) == dense)
            << "legacy side=" << static_cast<int>(sides[i]);
        EXPECT_EQ(st.skippedWeightSide, sides[i] == SibiaSkipSide::Weight);
        if (!base[i])
            base[i] = st;
        else
            expectLegacyStatsEqual(st, *base[i]);
    }
}

struct ParityCase
{
    ActSkipMode mode;
    bool useEq6;
};

class KernelParity : public ::testing::TestWithParam<ParityCase>
{};

TEST_P(KernelParity, SbrActivationsMatchReferenceAcrossThreads)
{
    PoolGuard guard;
    const ParityCase pc = GetParam();
    Rng rng(101);
    const std::size_t m = 32, kk = 24, n = 20;
    const std::int32_t zp = 137;

    AqsConfig cfg;
    cfg.actSkip = pc.mode;
    cfg.useEq6 = pc.useEq6;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, zp);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

    AqsStats ref_stats;
    MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);

    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        for (int threads : {1, 2, 4, 8}) {
            setParallelThreads(threads);
            AqsStats new_stats;
            MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
            EXPECT_TRUE(got == ref)
                << "accumulator mismatch at isa=" << toString(isa)
                << " threads=" << threads;
            expectStatsEqual(new_stats, ref_stats);
        }
    }
}

TEST_P(KernelParity, DbsActivationsMatchReferenceAcrossThreads)
{
    PoolGuard guard;
    const ParityCase pc = GetParam();
    Rng rng(202);
    const std::size_t m = 24, kk = 16, n = 28;

    AqsConfig cfg;
    cfg.actSkip = pc.mode;
    cfg.useEq6 = pc.useEq6;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);

    for (int lo_bits : {4, 5, 6}) {
        const Slice r = 9;
        MatrixI32 x_codes =
            randomActivationCodes(rng, kk, n, 8, r << lo_bits);
        WeightOperand w = prepareWeights(w_codes, 1, cfg);
        ActivationOperand x =
            prepareActivationsDbs(x_codes, lo_bits, r, cfg);

        AqsStats ref_stats;
        MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
        IsaGuard isa_guard;
        for (IsaLevel isa : runnableIsaLevels()) {
            setIsaLevel(isa);
            for (int threads : {1, 2, 4, 8}) {
                setParallelThreads(threads);
                AqsStats new_stats;
                MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
                EXPECT_TRUE(got == ref)
                    << "DBS mismatch at l=" << lo_bits
                    << " isa=" << toString(isa)
                    << " threads=" << threads;
                expectStatsEqual(new_stats, ref_stats);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSkipModes, KernelParity,
    ::testing::Values(ParityCase{ActSkipMode::RValued, true},
                      ParityCase{ActSkipMode::RValued, false},
                      ParityCase{ActSkipMode::ZeroOnly, true},
                      ParityCase{ActSkipMode::None, true}));

TEST(KernelParity, MultiSliceOperandsMatchReference)
{
    PoolGuard guard;
    Rng rng(303);
    // n = 2 LO weight slices (3 planes), k = 2 activation slices
    // (3 planes): exercises multi-LO-plane pair scheduling.
    const std::size_t m = 16, kk = 12, n = 16;
    AqsConfig cfg;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 2);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 12, 1234);
    WeightOperand w = prepareWeights(w_codes, 2, cfg);
    ActivationOperand x = prepareActivations(x_codes, 2, 1234, cfg);

    AqsStats ref_stats;
    MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
    for (int threads : {1, 4}) {
        setParallelThreads(threads);
        AqsStats new_stats;
        MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
        EXPECT_TRUE(got == ref);
        expectStatsEqual(new_stats, ref_stats);
    }
}

TEST(KernelParity, NonDefaultVectorLengthMatchesReference)
{
    PoolGuard guard;
    Rng rng(404);
    const std::size_t m = 32, kk = 12, n = 24;
    AqsConfig cfg;
    cfg.v = 8; // generic (non-SSE) micro-kernel path
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, 99);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, 99, cfg);

    AqsStats ref_stats;
    MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        for (int threads : {1, 2, 8}) {
            setParallelThreads(threads);
            AqsStats new_stats;
            MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
            EXPECT_TRUE(got == ref) << "isa=" << toString(isa);
            expectStatsEqual(new_stats, ref_stats);
        }
    }
}

TEST(KernelParity, DensityExtremesMatchReferenceAcrossIsaLevels)
{
    // Near-fully-compressible and fully-dense operands steer the
    // kernels through the listed and streaming paths respectively;
    // both must match the reference bit-for-bit.
    PoolGuard guard;
    IsaGuard isa_guard;
    Rng rng(1001);
    const std::size_t m = 16, kk = 32, n = 16;
    const std::int32_t zp = 136;

    AqsConfig cfg;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);

    for (double cluster : {0.0, 0.98}) {
        MatrixI32 x_codes =
            randomActivationCodes(rng, kk, n, 8, zp, cluster);
        WeightOperand w = prepareWeights(w_codes, 1, cfg);
        ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

        AqsStats ref_stats;
        MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
        for (IsaLevel isa : runnableIsaLevels()) {
            setIsaLevel(isa);
            for (int threads : {1, 4}) {
                setParallelThreads(threads);
                AqsStats new_stats;
                MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
                EXPECT_TRUE(got == ref)
                    << "cluster=" << cluster
                    << " isa=" << toString(isa)
                    << " threads=" << threads;
                expectStatsEqual(new_stats, ref_stats);
            }
        }
    }
}

TEST(KernelParity, VnniKernelsMatchReferenceBitForBit)
{
    // Explicit VNNI axis: vpdpbusd wraps mod 2^32 exactly like the
    // maddubs+madd+add chain it fuses, so the VNNI tier must be
    // bit-identical - accumulator AND stats - on both engines, across
    // the streamed and listed paths (stream4 + streamGeneric). Skip,
    // not fail, when the host or toolchain lacks AVX512-VNNI.
    if (supportedIsaCap() < IsaLevel::Avx512Vnni)
        GTEST_SKIP() << "host/toolchain cap is "
                     << toString(supportedIsaCap())
                     << "; AVX512-VNNI kernels not runnable";

    PoolGuard guard;
    IsaGuard isa_guard;
    setIsaLevel(IsaLevel::Avx512Vnni);
    Rng rng(1301);
    const std::size_t m = 32, kk = 32, n = 24;
    const std::int32_t zp = 131;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);

    for (int v : {4, 8}) {             // stream4 vs streamGeneric
        for (double cluster : {0.1, 0.9}) { // list- vs stream-heavy
            AqsConfig cfg;
            cfg.v = v;
            MatrixI32 x_codes =
                randomActivationCodes(rng, kk, n, 8, zp, cluster);
            WeightOperand w = prepareWeights(w_codes, 1, cfg);
            ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

            AqsStats ref_stats;
            MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
            for (int threads : {1, 4}) {
                setParallelThreads(threads);
                AqsStats new_stats;
                MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
                EXPECT_TRUE(got == ref)
                    << "vnni mismatch at v=" << v
                    << " cluster=" << cluster << " threads=" << threads;
                expectStatsEqual(new_stats, ref_stats);
            }
        }
    }

    // Legacy engine over the same VNNI row.
    MatrixI32 lw = randomWeightCodes(rng, m, kk, 1, 0.7);
    MatrixI32 lx = randomWeightCodes(rng, kk, n, 1, 0.7);
    SlicedMatrix ws = sbrSliceMatrix(lw, 1);
    SlicedMatrix xs = sbrSliceMatrix(lx, 1);
    MatrixI64 dense = intGemm(lw, lx);
    for (int threads : {1, 4}) {
        setParallelThreads(threads);
        EXPECT_TRUE(legacyBitsliceGemm(ws, xs, 4, SibiaSkipSide::Auto) ==
                    dense)
            << "legacy vnni mismatch at threads=" << threads;
    }
}

TEST(KernelParity, OversizedVectorLengthFallsBackCorrectly)
{
    PoolGuard guard;
    setParallelThreads(4);
    Rng rng(808);
    // v = 20 exceeds the blocked micro-tile bound: aqsGemm and
    // legacyBitsliceGemm must both fall back to the scalar reference,
    // not abort.
    const std::size_t m = 40, kk = 8, n = 20;
    AqsConfig cfg;
    cfg.v = 20;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, 66);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, 66, cfg);

    AqsStats ref_stats, new_stats;
    MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
    MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
    EXPECT_TRUE(got == ref);
    expectStatsEqual(new_stats, ref_stats);

    // Sibia on the AQS scalar reference: exact, with the closed-form
    // counters (each compressed vector of the skipped side skips its
    // HO pass against every plane and group of the other side).
    const MatrixI32 lw_codes = randomWeightCodes(rng, m, kk, 1, 0.97);
    const MatrixI32 lx_codes = randomWeightCodes(rng, kk, n, 1, 0.97);
    SlicedMatrix ws = sbrSliceMatrix(lw_codes, 1);
    SlicedMatrix xs = sbrSliceMatrix(lx_codes, 1);
    const MatrixI64 dense = intGemm(lw_codes, lx_codes);
    const std::uint64_t m_groups = m / 20, n_groups = n / 20;
    const std::uint64_t all = m_groups * n_groups * kk * ws.levels() *
                              xs.levels();
    const auto ones = [](const MatrixU8 &mask) {
        std::uint64_t c = 0;
        for (std::uint8_t b : mask.data())
            c += b != 0;
        return c;
    };
    const std::uint64_t w_comp =
        ones(weightVectorMask(ws.hoPlane().data, 20));
    const std::uint64_t x_comp =
        ones(activationVectorMask(xs.hoPlane().data, 20, 0));
    ASSERT_GT(w_comp, 0u);
    ASSERT_GT(x_comp, 0u);
    for (SibiaSkipSide side :
         {SibiaSkipSide::Weight, SibiaSkipSide::Activation}) {
        const bool skip_w = side == SibiaSkipSide::Weight;
        LegacyStats st;
        EXPECT_TRUE(legacyBitsliceGemm(ws, xs, 20, side, &st) == dense)
            << "side=" << static_cast<int>(side);
        const std::uint64_t skipped =
            skip_w ? w_comp * n_groups * xs.levels()
                   : x_comp * m_groups * ws.levels();
        EXPECT_EQ(st.denseOuterProducts, all);
        EXPECT_EQ(st.skippedOuterProducts, skipped);
        EXPECT_EQ(st.executedOuterProducts, all - skipped);
        EXPECT_EQ(st.mults, (all - skipped) * 20 * 20);
        EXPECT_EQ(st.skippedWeightSide, skip_w);
    }
}

TEST(KernelParity, HandBuiltOperandWithoutQuadPlanesStillWorks)
{
    Rng rng(909);
    const std::size_t m = 16, kk = 8, n = 12;
    AqsConfig cfg;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, 50);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, 50, cfg);
    MatrixI64 ref = aqsGemmReference(w, x, cfg);

    // Simulate an operand assembled by hand (no precomputed quad
    // planes): the kernel must build them on the fly.
    x.quadPlanes.clear();
    EXPECT_TRUE(aqsGemm(w, x, cfg) == ref);
}

TEST(KernelParity, HandBuiltOperandWithoutMaskRunsUnderNoneMode)
{
    // Under ActSkipMode::None the HO mask is never consulted, so a
    // hand-built operand may leave it (and the quad planes) empty; the
    // kernel must build its quad operand unmasked rather than touch the
    // absent mask.
    Rng rng(1203);
    const std::size_t m = 16, kk = 8, n = 12;
    AqsConfig cfg;
    cfg.actSkip = ActSkipMode::None;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, 60);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, 60, cfg);
    MatrixI64 ref = aqsGemm(w, x, cfg);

    ActivationOperand bare;
    bare.sliced = x.sliced;
    bare.r = x.r;
    EXPECT_TRUE(aqsGemm(w, bare, cfg) == ref);
}

TEST(KernelParity, ReferenceStillMatchesPlainIntGemm)
{
    Rng rng(505);
    const std::size_t m = 16, kk = 8, n = 12;
    AqsConfig cfg;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, 77);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, 77, cfg);

    MatrixI64 dense = intGemm(w_codes, x_codes);
    EXPECT_TRUE(aqsGemmReference(w, x, cfg) == dense);
    EXPECT_TRUE(aqsGemm(w, x, cfg) == dense);
}

TEST(KernelParity, MacReductionUsesConfiguredVectorLength)
{
    Rng rng(606);
    AqsConfig cfg;
    cfg.v = 2;
    const std::size_t m = 8, kk = 8, n = 8;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, 40);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, 40, cfg);

    AqsStats stats;
    (void)aqsGemm(w, x, cfg, &stats);
    EXPECT_DOUBLE_EQ(stats.macsPerOuterProduct, 4.0);
    // Reduction must be derived from v*v = 4, not the hardcoded 16:
    // executed * 4 MACs of denseOuterProducts * 4.
    const double expect =
        1.0 - static_cast<double>(stats.totalMults()) /
                  (static_cast<double>(stats.denseOuterProducts) * 4.0);
    EXPECT_DOUBLE_EQ(stats.macReduction(), expect);
}

TEST(KernelParity, MixedVectorLengthMergeKeepsReductionExact)
{
    // Merging stats from runs with different v must blend the per-OP
    // MAC count weighted by dense OPs, keeping macReduction() exact.
    AqsStats a;
    a.denseOuterProducts = 100;
    a.executedOuterProducts = 50;
    a.mults = 50 * 16;
    a.macsPerOuterProduct = 16.0;

    AqsStats b;
    b.denseOuterProducts = 300;
    b.executedOuterProducts = 300;
    b.mults = 300 * 4;
    b.macsPerOuterProduct = 4.0;

    AqsStats total;
    total += a;
    total += b;
    // dense MACs = 100*16 + 300*4 = 2800; executed = 800 + 1200 = 2000.
    EXPECT_DOUBLE_EQ(total.denseOuterProducts * total.macsPerOuterProduct,
                     2800.0);
    EXPECT_DOUBLE_EQ(total.macReduction(), 1.0 - 2000.0 / 2800.0);
}

TEST(KernelParity, LegacyGemmDeterministicAcrossThreads)
{
    PoolGuard guard;
    Rng rng(707);
    const std::size_t m = 24, kk = 16, n = 20;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1, 0.8);
    MatrixI32 x_codes = randomWeightCodes(rng, kk, n, 1, 0.8);
    SlicedMatrix ws = sbrSliceMatrix(w_codes, 1);
    SlicedMatrix xs = sbrSliceMatrix(x_codes, 1);

    MatrixI64 dense = intGemm(w_codes, x_codes);
    setParallelThreads(1);
    LegacyStats base;
    MatrixI64 ref = legacyBitsliceGemm(ws, xs, 4, SibiaSkipSide::Auto,
                                       &base);
    EXPECT_TRUE(ref == dense);
    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        for (int threads : {2, 4, 8}) {
            setParallelThreads(threads);
            LegacyStats st;
            MatrixI64 got = legacyBitsliceGemm(ws, xs, 4,
                                               SibiaSkipSide::Auto, &st);
            EXPECT_TRUE(got == ref) << "isa=" << toString(isa);
            EXPECT_EQ(st.executedOuterProducts,
                      base.executedOuterProducts);
            EXPECT_EQ(st.skippedOuterProducts,
                      base.skippedOuterProducts);
            EXPECT_EQ(st.mults, base.mults);
            EXPECT_DOUBLE_EQ(st.rhoW, base.rhoW);
            EXPECT_DOUBLE_EQ(st.rhoX, base.rhoX);
        }
    }
}

TEST(KernelParity, LegacyGemmBothSkipSidesMatchDenseAcrossIsaLevels)
{
    // Weight-side and activation-side skipping drive different masked
    // quad operands in the legacy kernel; both must stay exact. Its SBR
    // activations are signed (stored as x + 8), so activation-side
    // skipping runs its passes unlisted, weight-side skipping listed.
    PoolGuard guard;
    IsaGuard isa_guard;
    PolicyGuard policy_guard;
    Rng rng(1102);
    const std::size_t m = 16, n = 16;
    for (std::size_t kk : {24u, 25u, 26u, 27u}) { // K mod 4 = 0..3
        MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1, 0.7);
        MatrixI32 x_codes = randomWeightCodes(rng, kk, n, 1, 0.7);
        SlicedMatrix ws = sbrSliceMatrix(w_codes, 1);
        SlicedMatrix xs = sbrSliceMatrix(x_codes, 1);
        MatrixI64 dense = intGemm(w_codes, x_codes);

        for (SibiaSkipSide side :
             {SibiaSkipSide::Weight, SibiaSkipSide::Activation}) {
            for (StreamPolicy policy :
                 {StreamPolicy::Stream, StreamPolicy::Gather,
                  StreamPolicy::Measured}) {
                setStreamPolicy(policy);
                for (IsaLevel isa : runnableIsaLevels()) {
                    setIsaLevel(isa);
                    MatrixI64 got = legacyBitsliceGemm(ws, xs, 4, side);
                    EXPECT_TRUE(got == dense)
                        << "kk=" << kk << " side=" << static_cast<int>(side)
                        << " policy=" << toString(policy)
                        << " isa=" << toString(isa);
                }
            }
        }
    }
}

/** Which HO vectors a word-boundary case compresses. */
enum class MaskKind
{
    AllDense,
    AllCompressed,
    WeightOnly, ///< every weight HO vector compressed, no activation one
    ActOnly,    ///< every activation HO vector compressed, no weight one
    TailOnly,   ///< only step kk-1 dense: every list is the tail quad
    OnePerQuad, ///< step 4q dense: full quad lists over sparse steps
    Random,
};

const char *
maskKindName(MaskKind kind)
{
    switch (kind) {
      case MaskKind::AllDense:      return "all-dense";
      case MaskKind::AllCompressed: return "all-compressed";
      case MaskKind::WeightOnly:    return "weight-only";
      case MaskKind::ActOnly:       return "act-only";
      case MaskKind::TailOnly:      return "tail-only";
      case MaskKind::OnePerQuad:    return "one-per-quad";
      case MaskKind::Random:        return "random";
    }
    return "?";
}

/** Whether a (non-random) word-boundary case leaves step k of a kk-step
 *  reduction dense on the weight or the activation side. */
bool
denseAt(MaskKind kind, bool weight_side, std::size_t k, std::size_t kk)
{
    switch (kind) {
      case MaskKind::AllCompressed: return false;
      case MaskKind::WeightOnly:    return !weight_side;
      case MaskKind::ActOnly:       return weight_side;
      case MaskKind::TailOnly:      return k + 1 == kk;
      case MaskKind::OnePerQuad:    return k % 4 == 0;
      default:                      return true;
    }
}

/** 7-bit SBR (n = 1) weight codes whose HO slices are all zero
 *  (compressed, [-8, 7]) at the steps `kind` compresses on the weight
 *  side and all nonzero (|code| >= 16) at the others. */
MatrixI32
uniformHoWeightCodes(Rng &rng, std::size_t m, std::size_t k,
                     MaskKind kind)
{
    MatrixI32 codes(m, k);
    for (std::size_t row = 0; row < m; ++row)
        for (std::size_t col = 0; col < k; ++col)
            codes(row, col) = static_cast<std::int32_t>(
                !denseAt(kind, true, col, k) ? rng.uniformInt(-8, 7)
                : rng.bernoulli(0.5)         ? rng.uniformInt(16, 63)
                                             : rng.uniformInt(-64, -24));
    return codes;
}

/** 8-bit activation codes whose HO nibble is r = zp >> 4 (compressed)
 *  exactly at the steps `kind` compresses on the activation side. */
MatrixI32
uniformHoActivationCodes(Rng &rng, std::size_t k, std::size_t n,
                         std::int32_t zp, MaskKind kind)
{
    const std::int32_t r = (zp >> 4) & 0xF;
    MatrixI32 codes(k, n);
    for (std::size_t row = 0; row < k; ++row) {
        const std::int32_t ho =
            denseAt(kind, false, row, k) ? (r + 8) % 16 : r;
        for (std::size_t col = 0; col < n; ++col)
            codes(row, col) =
                ho * 16 + static_cast<std::int32_t>(rng.uniformInt(0, 15));
    }
    return codes;
}

TEST(KernelParity, BitsetWordBoundariesMatchReference)
{
    // Reduction lengths on both sides of 64-bit word edges (and one
    // several words long, K = 1, 2 and 3 mod 4 among them) so the
    // dense-step bitsets' tail words, full words, multi-word
    // intersections and partial tail quads all run, for every mask
    // shape - empty, tail-quad-only and full quad lists included -
    // dispatch policy, ISA level and pool width.
    PoolGuard guard;
    IsaGuard isa_guard;
    PolicyGuard policy_guard;
    const std::int32_t zp = 137;
    Rng rng(1401);

    for (std::size_t kk : {63u, 64u, 65u, 66u, 127u, 129u, 2049u}) {
        for (int v : {4, 8}) {
            const std::size_t m = 2 * static_cast<std::size_t>(v);
            const std::size_t n = 2 * static_cast<std::size_t>(v);
            AqsConfig cfg;
            cfg.v = v;
            for (MaskKind kind :
                 {MaskKind::AllDense, MaskKind::AllCompressed,
                  MaskKind::WeightOnly, MaskKind::ActOnly,
                  MaskKind::TailOnly, MaskKind::OnePerQuad,
                  MaskKind::Random}) {
                const MatrixI32 w_codes =
                    kind == MaskKind::Random
                        ? randomWeightCodes(rng, m, kk, 1)
                        : uniformHoWeightCodes(rng, m, kk, kind);
                const MatrixI32 x_codes =
                    kind == MaskKind::Random
                        ? randomActivationCodes(rng, kk, n, 8, zp)
                        : uniformHoActivationCodes(rng, kk, n, zp, kind);
                resetIsaLevel();
                resetStreamPolicy();
                const WeightOperand w = prepareWeights(w_codes, 1, cfg);
                const ActivationOperand x =
                    prepareActivations(x_codes, 1, zp, cfg);
                if (kind != MaskKind::Random) {
                    for (std::size_t k = 0; k < kk; ++k) {
                        for (std::size_t mg = 0; mg < w.hoMask.rows(); ++mg)
                            ASSERT_EQ(w.hoMask(mg, k) == 0,
                                      denseAt(kind, true, k, kk));
                        for (std::size_t ng = 0; ng < x.hoMask.cols(); ++ng)
                            ASSERT_EQ(x.hoMask(k, ng) == 0,
                                      denseAt(kind, false, k, kk));
                    }
                }

                AqsStats ref_stats;
                const MatrixI64 ref =
                    aqsGemmReference(w, x, cfg, &ref_stats);
                // Sibia front end on the same sliced operands (the
                // long kk = 2049 case is AQS-only).
                const bool legacy = kk != 2049;
                const MatrixI64 dense =
                    legacy ? intGemm(w_codes, x_codes) : MatrixI64{};
                std::array<std::optional<LegacyStats>, 2> legacy_base;
                for (StreamPolicy policy :
                     {StreamPolicy::Stream, StreamPolicy::Gather,
                      StreamPolicy::Measured}) {
                    setStreamPolicy(policy);
                    for (IsaLevel isa : runnableIsaLevels()) {
                        setIsaLevel(isa);
                        for (int threads : {1, 2, 4}) {
                            setParallelThreads(threads);
                            AqsStats got_stats;
                            const MatrixI64 got =
                                aqsGemm(w, x, cfg, &got_stats);
                            SCOPED_TRACE(::testing::Message()
                                         << "kk=" << kk << " v=" << v
                                         << " masks=" << maskKindName(kind)
                                         << " policy=" << toString(policy)
                                         << " isa=" << toString(isa)
                                         << " threads=" << threads);
                            EXPECT_TRUE(got == ref);
                            expectStatsEqual(got_stats, ref_stats);
                            if (legacy && threads != 2)
                                expectLegacyMatchesDense(
                                    w.sliced, x.sliced, v, dense,
                                    legacy_base);
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelParity, ExactnessGuardBoundaries)
{
    // aqsGemm's blocked kernel: K < 2^22 and v <= 16.
    constexpr std::size_t k22 = std::size_t{1} << 22;
    EXPECT_TRUE(detail::aqsBlockedKernelExact(k22 - 1, 4));
    EXPECT_FALSE(detail::aqsBlockedKernelExact(k22, 4));
    EXPECT_TRUE(detail::aqsBlockedKernelExact(64, 16));
    EXPECT_FALSE(detail::aqsBlockedKernelExact(64, 17));
    EXPECT_FALSE(detail::aqsBlockedKernelExact(k22, 17));
}

/**
 * One-plane operands for a single v = 4 band (M = N = 4) whose every
 * slice sits at the bound the stream kernels assume: weights -8,
 * activations 63, and no compressed vector on either side.
 */
std::pair<WeightOperand, ActivationOperand>
worstCaseOperands(std::size_t kk)
{
    WeightOperand w;
    w.sliced.signedSlices = true;
    w.sliced.planes.resize(1);
    w.sliced.planes[0].data =
        Matrix<Slice>(4, kk, static_cast<Slice>(-detail::kQuadWeightAbsMax));
    w.sliced.planes[0].high = true;
    w.hoMask = MatrixU8(1, kk, 0);
    ActivationOperand x;
    x.sliced.planes.resize(1);
    x.sliced.planes[0].data =
        Matrix<Slice>(kk, 4, static_cast<Slice>(detail::kQuadActMax));
    x.sliced.planes[0].high = true;
    x.hoMask = MatrixU8(kk, 1, 0);
    return {std::move(w), std::move(x)};
}

TEST(KernelParity, WorstCaseSliceProductsAtTheExactnessBoundary)
{
    // K = 2^22 - 1 steps of (-8) x 63 = -504 each: every int32 pass
    // accumulator ends at -2,113,928,712 (inside int32), and every
    // vpmaddubsw int16 pair sum at -1008. Stream, gather and measured
    // dispatch must all equal the reference on every runnable tier;
    // K = 2^22 leaves the blocked kernel's domain and must fall back
    // to the reference.
    PoolGuard guard;
    IsaGuard isa_guard;
    PolicyGuard policy_guard;
    constexpr std::size_t k22 = std::size_t{1} << 22;
    AqsConfig cfg;
    cfg.actSkip = ActSkipMode::None;
    {
        const auto [w, x] = worstCaseOperands(k22 - 1);
        const MatrixI64 ref = aqsGemmReference(w, x, cfg);
        const std::int64_t each = -std::int64_t{detail::kQuadWeightAbsMax} *
                                  detail::kQuadActMax *
                                  static_cast<std::int64_t>(k22 - 1);
        for (std::int64_t e : ref.data())
            ASSERT_EQ(e, each);
        ASSERT_GE(each, std::numeric_limits<std::int32_t>::min());
        for (IsaLevel isa : runnableIsaLevels()) {
            setIsaLevel(isa);
            for (StreamPolicy policy :
                 {StreamPolicy::Stream, StreamPolicy::Gather,
                  StreamPolicy::Measured}) {
                setStreamPolicy(policy);
                EXPECT_TRUE(aqsGemm(w, x, cfg) == ref)
                    << "isa=" << toString(isa)
                    << " policy=" << toString(policy);
            }
        }
    }
    {
        // The same bound through listed passes: the first quad's weight
        // vectors are zero and compressed, so the pass lists the other
        // kq - 1 quads (forced gather runs it listed).
        auto [w, x] = worstCaseOperands(k22 - 1);
        for (std::size_t k = 0; k < 4; ++k) {
            for (std::size_t i = 0; i < 4; ++i)
                w.sliced.planes[0].data(i, k) = 0;
            w.hoMask(0, k) = 1;
        }
        const MatrixI64 ref = aqsGemmReference(w, x, cfg);
        const std::int64_t each = -std::int64_t{detail::kQuadWeightAbsMax} *
                                  detail::kQuadActMax *
                                  static_cast<std::int64_t>(k22 - 5);
        for (std::int64_t e : ref.data())
            ASSERT_EQ(e, each);
        for (IsaLevel isa : runnableIsaLevels()) {
            setIsaLevel(isa);
            for (StreamPolicy policy :
                 {StreamPolicy::Stream, StreamPolicy::Gather,
                  StreamPolicy::Measured}) {
                setStreamPolicy(policy);
                EXPECT_TRUE(aqsGemm(w, x, cfg) == ref)
                    << "listed isa=" << toString(isa)
                    << " policy=" << toString(policy);
            }
        }
    }
    resetStreamPolicy();
    const auto [w, x] = worstCaseOperands(k22);
    ASSERT_FALSE(detail::aqsBlockedKernelExact(k22, cfg.v));
    EXPECT_TRUE(aqsGemm(w, x, cfg) == aqsGemmReference(w, x, cfg));
}

TEST(KernelParity, VectorLengthGuardBoundaryMatchesReference)
{
    // v = 16 is the widest blocked micro-tile; v = 17 is routed to the
    // reference. Both must equal aqsGemmReference bit-for-bit, and the
    // Sibia front end the dense intGemm under every policy.
    PoolGuard guard;
    IsaGuard isa_guard;
    PolicyGuard policy_guard;
    Rng rng(1501);
    const std::size_t kk = 70; // crosses a bitset word
    const std::int32_t zp = 88;
    for (int v : {16, 17}) {
        const std::size_t m = 2 * static_cast<std::size_t>(v);
        const std::size_t n = 2 * static_cast<std::size_t>(v);
        AqsConfig cfg;
        cfg.v = v;
        const MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1, 0.9);
        const MatrixI32 x_codes =
            randomActivationCodes(rng, kk, n, 8, zp, 0.95);
        const WeightOperand w = prepareWeights(w_codes, 1, cfg);
        const ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

        AqsStats ref_stats;
        const MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
        const MatrixI64 dense = intGemm(w_codes, x_codes);
        EXPECT_TRUE(ref == dense) << "v=" << v;
        std::array<std::optional<LegacyStats>, 2> legacy_base;
        for (IsaLevel isa : runnableIsaLevels()) {
            setIsaLevel(isa);
            for (int threads : {1, 4}) {
                setParallelThreads(threads);
                AqsStats got_stats;
                EXPECT_TRUE(aqsGemm(w, x, cfg, &got_stats) == ref)
                    << "v=" << v << " isa=" << toString(isa)
                    << " threads=" << threads;
                expectStatsEqual(got_stats, ref_stats);
                for (StreamPolicy policy :
                     {StreamPolicy::Stream, StreamPolicy::Gather,
                      StreamPolicy::Measured}) {
                    setStreamPolicy(policy);
                    SCOPED_TRACE(::testing::Message()
                                 << "legacy v=" << v
                                 << " policy=" << toString(policy)
                                 << " isa=" << toString(isa)
                                 << " threads=" << threads);
                    expectLegacyMatchesDense(w.sliced, x.sliced, v, dense,
                                             legacy_base);
                }
                resetStreamPolicy();
            }
        }
    }
}

} // namespace
} // namespace panacea
