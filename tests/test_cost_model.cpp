/**
 * @file
 * Tests for the stream/list rule (core/kernel_cost_model.h): a pass
 * streams once 2 * nq >= kq, exactly at that boundary; forced stream
 * and forced gather override it; every policy is monotone in the list
 * length and bit-identical on both GEMM engines (the policy may move
 * work between the dense stream and listed quad passes, never change a
 * bit of results or statistics), across activation densities too; and
 * the removed "static" name is rejected everywhere it used to be
 * accepted.
 */

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/aqs_gemm.h"
#include "core/kernel_cost_model.h"
#include "core/legacy_gemm.h"
#include "panacea/runtime.h"
#include "policy_guard.h"
#include "pool_guard.h"
#include "quant/gemm_quant.h"
#include "slicing/sbr.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace panacea {
namespace {

constexpr StreamPolicy kAllPolicies[] = {
    StreamPolicy::Measured, StreamPolicy::Stream, StreamPolicy::Gather};

MatrixI32
randomWeightCodes(Rng &rng, std::size_t m, std::size_t k)
{
    const int bits = sbrBits(1);
    const std::int32_t lo = -(1 << (bits - 1));
    const std::int32_t hi = (1 << (bits - 1)) - 1;
    const std::int32_t narrow = (1 << std::max(1, bits - 4)) - 1;
    MatrixI32 codes(m, k);
    for (auto &c : codes.data()) {
        if (rng.bernoulli(0.5))
            c = static_cast<std::int32_t>(rng.uniformInt(-narrow, narrow));
        else
            c = static_cast<std::int32_t>(rng.uniformInt(lo, hi));
    }
    return codes;
}

MatrixI32
randomActivationCodes(Rng &rng, std::size_t k, std::size_t n,
                      std::int32_t zp, double cluster_bias)
{
    MatrixI32 codes(k, n);
    for (auto &c : codes.data()) {
        if (rng.bernoulli(cluster_bias))
            c = static_cast<std::int32_t>(
                std::clamp<std::int64_t>(zp + rng.uniformInt(-6, 6), 0,
                                         255));
        else
            c = static_cast<std::int32_t>(rng.uniformInt(0, 255));
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
    EXPECT_EQ(a.wNibbles, b.wNibbles);
    EXPECT_EQ(a.xNibbles, b.xNibbles);
    EXPECT_DOUBLE_EQ(a.macsPerOuterProduct, b.macsPerOuterProduct);
}

TEST(CostModel, PolicyNamesRoundTrip)
{
    for (StreamPolicy p : kAllPolicies) {
        StreamPolicy parsed;
        ASSERT_TRUE(parseStreamPolicy(toString(p), &parsed));
        EXPECT_EQ(parsed, p);
    }
    StreamPolicy parsed = StreamPolicy::Gather;
    EXPECT_TRUE(parseStreamPolicy("MEASURED", &parsed));
    EXPECT_EQ(parsed, StreamPolicy::Measured);
    // "static" was the fixed rule's kill switch; the rule is now the
    // default, so the name is gone and must not parse.
    parsed = StreamPolicy::Gather;
    EXPECT_FALSE(parseStreamPolicy("static", &parsed));
    EXPECT_FALSE(parseStreamPolicy("STATIC", &parsed));
    EXPECT_EQ(parsed, StreamPolicy::Gather); // untouched on failure
    EXPECT_FALSE(parseStreamPolicy("always", &parsed));
    EXPECT_FALSE(parseStreamPolicy("", &parsed));
}

TEST(CostModel, PolicyOverrideRoundTrips)
{
    PolicyGuard guard;
    for (StreamPolicy p :
         {StreamPolicy::Gather, StreamPolicy::Stream,
          StreamPolicy::Measured}) {
        setStreamPolicy(p);
        EXPECT_EQ(activeStreamPolicy(), p);
    }
}

TEST(CostModel, ForcedDecisionsAndExactRuleBoundary)
{
    const detail::StreamDecision rule{StreamPolicy::Measured};
    const detail::StreamDecision stream{StreamPolicy::Stream};
    const detail::StreamDecision gather{StreamPolicy::Gather};
    for (std::size_t kq :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{512}, std::size_t{1} << 20}) {
        // The rule streams from half of the quads listed, rounded up.
        const std::size_t half = (kq + 1) / 2;
        EXPECT_FALSE(rule.profitable(half - 1, kq)) << "kq=" << kq;
        EXPECT_TRUE(rule.profitable(half, kq)) << "kq=" << kq;
        for (std::size_t nq : {std::size_t{0}, half - 1, half, kq}) {
            EXPECT_TRUE(stream.profitable(nq, kq));
            EXPECT_FALSE(gather.profitable(nq, kq));
        }
    }
}

TEST(CostModel, ProfitabilityIsMonotoneInListLength)
{
    // Every policy's profitable() is nondecreasing in the listed quad
    // count nq at fixed kq: a longer list never flips a stream back to
    // a listed pass.
    for (StreamPolicy p : kAllPolicies) {
        const detail::StreamDecision d{p};
        for (std::size_t kq : {std::size_t{1}, std::size_t{7},
                               std::size_t{1024}}) {
            bool prev = false;
            for (std::size_t nq = 0; nq <= kq; ++nq) {
                const bool cur = d.profitable(nq, kq);
                EXPECT_TRUE(cur || !prev)
                    << "policy=" << toString(p) << " kq=" << kq
                    << ": profitable() dropped from true to false at nq="
                    << nq;
                prev = cur;
            }
        }
    }
}

TEST(CostModel, StaticRuntimeOptionWarnsAndKeepsTheSelection)
{
    PolicyGuard guard;
    const StreamPolicy before = activeStreamPolicy();
    RuntimeOptions opts;
    opts.streamPolicy = "static";
    testing::internal::CaptureStderr();
    { Runtime rt(opts); }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("'static' not recognized"), std::string::npos)
        << err;
    EXPECT_EQ(activeStreamPolicy(), before);

    // A known name still takes effect.
    opts.streamPolicy = "gather";
    { Runtime rt(opts); }
    EXPECT_EQ(activeStreamPolicy(), StreamPolicy::Gather);
}

TEST(CostModel, AllPoliciesBitIdenticalOnBothEngines)
{
    PoolGuard pool_guard;
    PolicyGuard policy_guard;
    Rng rng(4242);
    const std::size_t m = 32, kk = 28, n = 24;
    const std::int32_t zp = 133;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk);

    for (int v : {4, 8}) {             // fixed-v vs runtime-v kernels
        for (double cluster : {0.2, 0.9}) {
            AqsConfig cfg;
            cfg.v = v;
            MatrixI32 x_codes =
                randomActivationCodes(rng, kk, n, zp, cluster);
            WeightOperand w = prepareWeights(w_codes, 1, cfg);
            ActivationOperand x =
                prepareActivations(x_codes, 1, zp, cfg);

            AqsStats ref_stats;
            MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
            for (StreamPolicy p : kAllPolicies) {
                setStreamPolicy(p);
                for (int threads : {1, 4}) {
                    setParallelThreads(threads);
                    AqsStats new_stats;
                    MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
                    EXPECT_TRUE(got == ref)
                        << "policy=" << toString(p) << " v=" << v
                        << " cluster=" << cluster
                        << " threads=" << threads;
                    expectStatsEqual(new_stats, ref_stats);
                }
            }
        }
    }

    // Legacy engine: the same policies against the dense product.
    MatrixI32 lw = randomWeightCodes(rng, m, kk);
    MatrixI32 lx = randomWeightCodes(rng, kk, n);
    SlicedMatrix ws = sbrSliceMatrix(lw, 1);
    SlicedMatrix xs = sbrSliceMatrix(lx, 1);
    MatrixI64 dense = intGemm(lw, lx);
    for (StreamPolicy p : kAllPolicies) {
        setStreamPolicy(p);
        for (int threads : {1, 4}) {
            setParallelThreads(threads);
            EXPECT_TRUE(
                legacyBitsliceGemm(ws, xs, 4, SibiaSkipSide::Auto) ==
                dense)
                << "legacy policy=" << toString(p)
                << " threads=" << threads;
        }
    }
}

TEST(CostModel, DensitySweepMatchesReferenceUnderEveryPolicy)
{
    // The activation densities the kernel bench used to sweep (share
    // of activations outside the zero-point cluster), plus 2% and 5%:
    // at K = 256 (64 quads) those list about 15-20 and 25-40 quads per
    // n-group, so activation-side passes land on both sides of the
    // rule, while 30% and up list every quad.
    PoolGuard pool_guard;
    PolicyGuard policy_guard;
    Rng rng(6161);
    const std::size_t m = 32, kk = 256, n = 32;
    const std::int32_t zp = 136;
    AqsConfig cfg;
    const WeightOperand w =
        prepareWeights(randomWeightCodes(rng, m, kk), 1, cfg);
    for (int density : {2, 5, 10, 30, 50, 60, 70, 90}) {
        const ActivationOperand x = prepareActivations(
            randomActivationCodes(rng, kk, n, zp, 1.0 - density / 100.0),
            1, zp, cfg);
        AqsStats ref_stats;
        const MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);
        for (StreamPolicy p : kAllPolicies) {
            setStreamPolicy(p);
            for (int threads : {1, 4}) {
                setParallelThreads(threads);
                AqsStats got_stats;
                EXPECT_TRUE(aqsGemm(w, x, cfg, &got_stats) == ref)
                    << "density=" << density << "% policy=" << toString(p)
                    << " threads=" << threads;
                expectStatsEqual(got_stats, ref_stats);
            }
        }
    }
}

} // namespace
} // namespace panacea
