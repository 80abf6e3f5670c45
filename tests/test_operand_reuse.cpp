/**
 * @file
 * Tests for the operand-reuse entry points the serving runtime builds
 * on: concatActivationOperands() (batch assembly must be byte-identical
 * to preparing the concatenated codes directly, and batched GEMMs must
 * be column-slice deterministic), aqsCountStats()/aqsCountStatsBatch()
 * (counting must reproduce kernel statistics bit-for-bit, per range),
 * AqsLinearLayer::forwardPrepared(), and the generic-v streaming
 * pair-pass kernels across every runnable ISA level.
 */

#include <gtest/gtest.h>

#include "core/aqs_gemm.h"
#include "core/aqs_layer.h"
#include "core/legacy_gemm.h"
#include "isa_guard.h"
#include "pool_guard.h"
#include "slicing/rle.h"
#include "slicing/sbr.h"
#include "slicing/slice_tensor.h"
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

MatrixI32
concatColumns(const MatrixI32 &a, const MatrixI32 &b)
{
    MatrixI32 out(a.rows(), a.cols() + b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const auto ra = a.row(r);
        const auto rb = b.row(r);
        auto dst = out.row(r);
        std::copy(ra.begin(), ra.end(), dst.begin());
        std::copy(rb.begin(), rb.end(),
                  dst.begin() + static_cast<std::ptrdiff_t>(a.cols()));
    }
    return out;
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

/** Column range [c0, c1) of a matrix. */
MatrixI64
columnSlice(const MatrixI64 &m, std::size_t c0, std::size_t c1)
{
    MatrixI64 out(m.rows(), c1 - c0);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = c0; c < c1; ++c)
            out(r, c - c0) = m(r, c);
    return out;
}

struct ModeCase
{
    ActSkipMode mode;
    bool useEq6;
};

class OperandReuse : public ::testing::TestWithParam<ModeCase>
{};

TEST_P(OperandReuse, ConcatIsByteIdenticalToDirectPreparation)
{
    const ModeCase pc = GetParam();
    Rng rng(811);
    const std::size_t m = 16, kk = 24;
    const std::int32_t zp = 141;
    AqsConfig cfg;
    cfg.actSkip = pc.mode;
    cfg.useEq6 = pc.useEq6;

    MatrixI32 a_codes = randomActivationCodes(rng, kk, 8, 8, zp);
    MatrixI32 b_codes = randomActivationCodes(rng, kk, 12, 8, zp, 0.9);
    ActivationOperand a = prepareActivations(a_codes, 1, zp, cfg);
    ActivationOperand b = prepareActivations(b_codes, 1, zp, cfg);
    ActivationOperand direct = prepareActivations(
        concatColumns(a_codes, b_codes), 1, zp, cfg);

    const ActivationOperand *ops[] = {&a, &b};
    ActivationOperand cat = concatActivationOperands(ops, cfg);

    ASSERT_EQ(cat.sliced.levels(), direct.sliced.levels());
    for (std::size_t l = 0; l < direct.sliced.levels(); ++l) {
        EXPECT_TRUE(cat.sliced.planes[l].data ==
                    direct.sliced.planes[l].data);
        EXPECT_EQ(cat.sliced.planes[l].shift,
                  direct.sliced.planes[l].shift);
    }
    EXPECT_EQ(cat.r, direct.r);
    EXPECT_TRUE(cat.hoMask == direct.hoMask);
    EXPECT_EQ(cat.quadPlanes, direct.quadPlanes);

    // Every column band counts the same statistics (its RLE traffic
    // included) in both operands.
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    const std::size_t groups = direct.sliced.cols() / cfg.v;
    for (std::size_t g = 0; g < groups; ++g)
        expectStatsEqual(aqsCountStats(w, cat, cfg, g, g + 1),
                         aqsCountStats(w, direct, cfg, g, g + 1));

    // And the GEMM sees no difference.
    AqsStats s_cat, s_direct;
    EXPECT_TRUE(aqsGemm(w, cat, cfg, &s_cat) ==
                aqsGemm(w, direct, cfg, &s_direct));
    expectStatsEqual(s_cat, s_direct);
}

TEST_P(OperandReuse, BatchedGemmIsColumnSliceDeterministic)
{
    // The serving guarantee: a request's columns of a batched GEMM are
    // bit-identical to running the request alone - for SBR and DBS
    // slicing and across every runnable ISA level.
    const ModeCase pc = GetParam();
    Rng rng(812);
    const std::size_t m = 24, kk = 20;
    const std::int32_t zp = 137;
    AqsConfig cfg;
    cfg.actSkip = pc.mode;
    cfg.useEq6 = pc.useEq6;

    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);

    for (bool dbs : {false, true}) {
        MatrixI32 a_codes = randomActivationCodes(rng, kk, 4, 8, zp);
        MatrixI32 b_codes = randomActivationCodes(rng, kk, 8, 8, zp, 0.9);
        MatrixI32 c_codes = randomActivationCodes(rng, kk, 4, 8, zp, 0.2);
        ActivationOperand a, b, c;
        if (dbs) {
            const Slice r = static_cast<Slice>((zp >> 4) & 0xF);
            a = prepareActivationsDbs(a_codes, 5, r, cfg);
            b = prepareActivationsDbs(b_codes, 5, r, cfg);
            c = prepareActivationsDbs(c_codes, 5, r, cfg);
        } else {
            a = prepareActivations(a_codes, 1, zp, cfg);
            b = prepareActivations(b_codes, 1, zp, cfg);
            c = prepareActivations(c_codes, 1, zp, cfg);
        }
        const ActivationOperand *ops[] = {&a, &b, &c};
        ActivationOperand cat = concatActivationOperands(ops, cfg);

        IsaGuard isa_guard;
        for (IsaLevel isa : runnableIsaLevels()) {
            setIsaLevel(isa);
            MatrixI64 solo_a = aqsGemm(w, a, cfg);
            MatrixI64 solo_b = aqsGemm(w, b, cfg);
            MatrixI64 solo_c = aqsGemm(w, c, cfg);
            MatrixI64 batched = aqsGemm(w, cat, cfg);
            EXPECT_TRUE(columnSlice(batched, 0, 4) == solo_a)
                << "dbs=" << dbs << " isa=" << toString(isa);
            EXPECT_TRUE(columnSlice(batched, 4, 12) == solo_b)
                << "dbs=" << dbs << " isa=" << toString(isa);
            EXPECT_TRUE(columnSlice(batched, 12, 16) == solo_c)
                << "dbs=" << dbs << " isa=" << toString(isa);
        }
    }
}

TEST_P(OperandReuse, CountStatsMatchesKernelStats)
{
    const ModeCase pc = GetParam();
    Rng rng(813);
    const std::size_t m = 32, kk = 24, n = 16;
    const std::int32_t zp = 117;
    AqsConfig cfg;
    cfg.actSkip = pc.mode;
    cfg.useEq6 = pc.useEq6;

    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, zp);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

    AqsStats blocked_stats, ref_stats;
    aqsGemm(w, x, cfg, &blocked_stats);
    aqsGemmReference(w, x, cfg, &ref_stats);
    AqsStats counted = aqsCountStats(w, x, cfg);
    expectStatsEqual(counted, blocked_stats);
    expectStatsEqual(counted, ref_stats);
}

TEST_P(OperandReuse, CountStatsRangeMatchesSoloRun)
{
    // Per-request attribution: counting a request's column range of
    // the BATCHED operand must reproduce the stats of its solo run.
    const ModeCase pc = GetParam();
    Rng rng(814);
    const std::size_t m = 16, kk = 28;
    const std::int32_t zp = 149;
    AqsConfig cfg;
    cfg.actSkip = pc.mode;
    cfg.useEq6 = pc.useEq6;

    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    MatrixI32 a_codes = randomActivationCodes(rng, kk, 8, 8, zp);
    MatrixI32 b_codes = randomActivationCodes(rng, kk, 4, 8, zp, 0.95);
    ActivationOperand a = prepareActivations(a_codes, 1, zp, cfg);
    ActivationOperand b = prepareActivations(b_codes, 1, zp, cfg);
    const ActivationOperand *ops[] = {&a, &b};
    ActivationOperand cat = concatActivationOperands(ops, cfg);

    AqsStats solo_a, solo_b;
    aqsGemm(w, a, cfg, &solo_a);
    aqsGemm(w, b, cfg, &solo_b);

    expectStatsEqual(aqsCountStats(w, cat, cfg, 0, 2), solo_a);
    expectStatsEqual(aqsCountStats(w, cat, cfg, 2, 3), solo_b);

    const std::size_t offsets[] = {0, 2, 3};
    std::vector<AqsStats> batch = aqsCountStatsBatch(w, cat, cfg, offsets);
    ASSERT_EQ(batch.size(), 2u);
    expectStatsEqual(batch[0], solo_a);
    expectStatsEqual(batch[1], solo_b);
}

TEST_P(OperandReuse, PrecomputedWeightCountingCacheIsBitEqual)
{
    // The cached overloads (ServedModel precomputes the weight-side
    // mask scan once per layer) must reproduce the scanning overloads
    // bit for bit, range by range.
    const ModeCase pc = GetParam();
    Rng rng(815);
    const std::size_t m = 16, kk = 28;
    const std::int32_t zp = 149;
    AqsConfig cfg;
    cfg.actSkip = pc.mode;
    cfg.useEq6 = pc.useEq6;

    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, 12, 8, zp);
    ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

    const WeightCountingCache wcache =
        buildWeightCountingCache(w, cfg.v, cfg.rleIndexBits);
    expectStatsEqual(aqsCountStats(w, x, cfg, wcache),
                     aqsCountStats(w, x, cfg));
    expectStatsEqual(aqsCountStats(w, x, cfg, wcache, 1, 3),
                     aqsCountStats(w, x, cfg, 1, 3));

    const std::size_t offsets[] = {0, 1, 3};
    const std::vector<AqsStats> cached =
        aqsCountStatsBatch(w, x, cfg, wcache, offsets);
    const std::vector<AqsStats> scanned =
        aqsCountStatsBatch(w, x, cfg, offsets);
    ASSERT_EQ(cached.size(), scanned.size());
    for (std::size_t i = 0; i < cached.size(); ++i)
        expectStatsEqual(cached[i], scanned[i]);
}

TEST_P(OperandReuse, RleTrafficEqualsTheEncodersStoredEntries)
{
    // The RLE traffic counters are derived from the HO masks alone;
    // they must equal what the streams RleStream::encode() builds from
    // the HO planes would store - weights with fill 0, activations with
    // the mode's skip value (r, 0, or -1, which no unsigned slice
    // matches) - at every index width, for SBR and DBS activations.
    const ModeCase pc = GetParam();
    Rng rng(816);
    const std::size_t m = 16, kk = 40;
    const std::int32_t zp = 141;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1, 0.8);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, 12, 8, zp, 0.9);
    for (int bits : {1, 2, 3, 4, 8, 16}) {
        AqsConfig cfg;
        cfg.actSkip = pc.mode;
        cfg.useEq6 = pc.useEq6;
        cfg.rleIndexBits = bits;
        const WeightOperand w = prepareWeights(w_codes, 1, cfg);
        const ActivationOperand xs[] = {
            prepareActivations(x_codes, 1, zp, cfg),
            // DBS l = 5: the HO slice of zp is zp >> 5.
            prepareActivationsDbs(x_codes, 5, static_cast<Slice>(zp >> 5),
                                  cfg)};
        std::uint64_t w_stored = 0;
        for (const RleStream &st :
             encodeWeightPlane(w.sliced.hoPlane().data, cfg.v, bits))
            w_stored += st.storedCount();
        for (const ActivationOperand &x : xs) {
            const Slice fill = pc.mode == ActSkipMode::RValued ? x.r
                               : pc.mode == ActSkipMode::ZeroOnly
                                   ? Slice{0}
                                   : Slice{-1};
            std::uint64_t x_stored = 0;
            for (const RleStream &st : encodeActivationPlane(
                     x.sliced.hoPlane().data, cfg.v, fill, bits))
                x_stored += st.storedCount();
            const std::uint64_t lo_w = m * kk * (w.sliced.levels() - 1);
            const std::uint64_t lo_x =
                kk * x.sliced.cols() * (x.sliced.levels() - 1);
            for (const AqsStats &st :
                 {aqsCountStats(w, x, cfg), [&] {
                      AqsStats ref;
                      aqsGemmReference(w, x, cfg, &ref);
                      return ref;
                  }()}) {
                EXPECT_EQ(st.wIndexBits, w_stored * bits) << bits;
                EXPECT_EQ(st.xIndexBits, x_stored * bits) << bits;
                EXPECT_EQ(st.wNibbles, lo_w + w_stored * cfg.v) << bits;
                EXPECT_EQ(st.xNibbles, lo_x + x_stored * cfg.v) << bits;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, OperandReuse,
    ::testing::Values(ModeCase{ActSkipMode::RValued, true},
                      ModeCase{ActSkipMode::RValued, false},
                      ModeCase{ActSkipMode::ZeroOnly, true},
                      ModeCase{ActSkipMode::None, true}));

TEST(OperandReuseLayer, ForwardPreparedMatchesForwardCodes)
{
    Rng rng(815);
    const std::size_t m = 16, kk = 12;
    MatrixF wf(m, kk);
    for (auto &v : wf.data())
        v = static_cast<float>(rng.gaussian(0.0, 0.4));
    MatrixF calib(kk, 16);
    for (auto &v : calib.data())
        v = static_cast<float>(rng.gaussian(0.3, 1.0));
    std::vector<float> bias(m);
    for (auto &v : bias)
        v = static_cast<float>(rng.gaussian(0.0, 0.1));

    AqsPipelineOptions opts;
    const MatrixF calib_batches[] = {calib};
    AqsLinearLayer layer =
        AqsLinearLayer::calibrate(wf, bias, calib_batches, opts);

    MatrixF x(kk, 8);
    for (auto &v : x.data())
        v = static_cast<float>(rng.gaussian(0.3, 1.0));
    MatrixI32 codes = layer.quantizeInput(x);

    AqsStats direct_stats, prepared_stats;
    MatrixI64 direct = layer.forwardCodes(codes, &direct_stats);
    ActivationOperand op = layer.prepareInput(codes);
    MatrixI64 prepared = layer.forwardPrepared(op, &prepared_stats);
    EXPECT_TRUE(direct == prepared);
    expectStatsEqual(direct_stats, prepared_stats);

    // countStats reproduces the engine-recorded stats without running.
    AqsStats fresh;
    fresh += layer.countStats(op);
    expectStatsEqual(fresh, prepared_stats);

    // dequantizeOutput is the forward() tail.
    EXPECT_TRUE(layer.dequantizeOutput(direct) == layer.forward(x));
}

TEST(GenericVStream, BlockedMatchesReferenceAcrossIsaLevels)
{
    // The generic-v streaming kernels (SSE2/AVX2/AVX-512) engage on
    // dense skip lists for v != 4; every level must agree with the
    // scalar reference bit-for-bit, results and statistics.
    PoolGuard pool_guard;
    Rng rng(816);
    const std::int32_t zp = 133;
    for (int v : {2, 8, 16}) {
        const std::size_t m = static_cast<std::size_t>(v) * 4;
        const std::size_t kk = 24;
        const std::size_t n = static_cast<std::size_t>(v) * 3;
        AqsConfig cfg;
        cfg.v = v;
        // Clustered codes make most activation HO vectors all-r, so
        // dense lists (stream passes) and sparse lists (gather) both
        // occur across the column groups.
        MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1);
        MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, zp, 0.7);
        WeightOperand w = prepareWeights(w_codes, 1, cfg);
        ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

        AqsStats ref_stats;
        MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);

        IsaGuard isa_guard;
        for (IsaLevel isa : runnableIsaLevels()) {
            setIsaLevel(isa);
            for (int threads : {1, 4}) {
                setParallelThreads(threads);
                AqsStats got_stats;
                MatrixI64 got = aqsGemm(w, x, cfg, &got_stats);
                EXPECT_TRUE(got == ref)
                    << "v=" << v << " isa=" << toString(isa)
                    << " threads=" << threads;
                expectStatsEqual(got_stats, ref_stats);
            }
        }
    }
}

TEST(GenericVStream, LegacyGemmAgreesAcrossIsaLevels)
{
    PoolGuard pool_guard;
    Rng rng(817);
    const int v = 8;
    const std::size_t m = 32, kk = 24, n = 16;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk, 1, 0.8);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 8, 0, 0.8);
    SlicedMatrix w = sbrSliceMatrix(w_codes, 1);
    SlicedMatrix x = activationSliceMatrix(x_codes, 1);

    IsaGuard isa_guard;
    setIsaLevel(IsaLevel::Scalar);
    LegacyStats ref_stats;
    MatrixI64 ref = legacyBitsliceGemm(w, x, v, SibiaSkipSide::Auto,
                                       &ref_stats);
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        LegacyStats got_stats;
        MatrixI64 got = legacyBitsliceGemm(w, x, v, SibiaSkipSide::Auto,
                                           &got_stats);
        EXPECT_TRUE(got == ref) << "isa=" << toString(isa);
        EXPECT_EQ(got_stats.executedOuterProducts,
                  ref_stats.executedOuterProducts);
        EXPECT_EQ(got_stats.mults, ref_stats.mults);
    }
}

} // namespace
} // namespace panacea
