/**
 * @file
 * Tests for the per-host measured-cost stream/list dispatch
 * (core/kernel_cost_model.h): every forced policy is bit-identical on
 * both GEMM engines (the policy may move work between the dense stream
 * and listed quad passes, never change a bit of results or
 * statistics); the
 * calibration file round-trips exactly and is rejected - silently, by
 * falling back to re-measurement, never by throwing - on version,
 * checksum, or ISA-coverage mismatch; and a poisoned calibration (cost
 * fields off by 1000x either way) still yields exact outputs.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/aqs_gemm.h"
#include "core/kernel_cost_model.h"
#include "core/legacy_gemm.h"
#include "isa_guard.h"
#include "policy_guard.h"
#include "pool_guard.h"
#include "quant/gemm_quant.h"
#include "slicing/sbr.h"
#include "slicing/straightforward.h"
#include "util/cpu_features.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace panacea {
namespace {

/**
 * Points the calibration cache at a fresh temp dir for one test and
 * restores the env-derived dir + process-wide table on scope exit.
 */
class CostDirGuard
{
  public:
    explicit CostDirGuard(const std::string &subdir)
        : dir_(std::filesystem::path(::testing::TempDir()) / subdir)
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        detail::setKernelCostCacheDir(dir_.string());
    }
    ~CostDirGuard()
    {
        detail::setKernelCostCacheDir("", /*reset=*/true);
        detail::reloadKernelCosts();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    const std::filesystem::path &dir() const { return dir_; }
    std::string path() const { return detail::kernelCostCachePath(); }

    CostDirGuard(const CostDirGuard &) = delete;
    CostDirGuard &operator=(const CostDirGuard &) = delete;

  private:
    std::filesystem::path dir_;
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out << text;
}

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

/** A fully-populated synthetic calibration valid for this host. */
detail::KernelCostTable
syntheticTable(std::uint64_t gather_ps, std::uint64_t stream_ps)
{
    detail::KernelCostTable t;
    t.version = detail::kKernelCostVersion;
    t.isa_cap = supportedIsaCap();
    for (std::size_t l = 0; l < kIsaLevelCount; ++l)
        for (std::size_t f = 0; f < detail::kKernelFamilyCount; ++f) {
            t.entries[l][f].measured = true;
            t.entries[l][f].gather_ps_per_step = gather_ps;
            t.entries[l][f].stream_ps_per_pair = stream_ps;
        }
    return t;
}

TEST(CostModel, PolicyNamesRoundTrip)
{
    for (StreamPolicy p :
         {StreamPolicy::Static, StreamPolicy::Measured,
          StreamPolicy::Stream, StreamPolicy::Gather}) {
        StreamPolicy parsed;
        ASSERT_TRUE(parseStreamPolicy(toString(p), &parsed));
        EXPECT_EQ(parsed, p);
    }
    StreamPolicy parsed;
    EXPECT_TRUE(parseStreamPolicy("MEASURED", &parsed));
    EXPECT_EQ(parsed, StreamPolicy::Measured);
    EXPECT_FALSE(parseStreamPolicy("always", &parsed));
    EXPECT_FALSE(parseStreamPolicy("", &parsed));
}

TEST(CostModel, PolicyOverrideRoundTrips)
{
    PolicyGuard guard;
    for (StreamPolicy p :
         {StreamPolicy::Gather, StreamPolicy::Stream,
          StreamPolicy::Static, StreamPolicy::Measured}) {
        setStreamPolicy(p);
        EXPECT_EQ(activeStreamPolicy(), p);
    }
}

TEST(CostModel, ForcedDecisionsAndStaticRule)
{
    PolicyGuard guard;

    setStreamPolicy(StreamPolicy::Stream);
    detail::StreamDecision d = detail::streamDecision(
        activeIsaLevel(), detail::KernelFamily::Pass4);
    EXPECT_TRUE(d.profitable(0, 1024));
    EXPECT_TRUE(d.profitable(1024, 1024));

    setStreamPolicy(StreamPolicy::Gather);
    d = detail::streamDecision(activeIsaLevel(),
                               detail::KernelFamily::Pass4);
    EXPECT_FALSE(d.profitable(0, 1024));
    EXPECT_FALSE(d.profitable(1024, 1024));

    setStreamPolicy(StreamPolicy::Static);
    d = detail::streamDecision(activeIsaLevel(),
                               detail::KernelFamily::Pass4);
    EXPECT_FALSE(d.measured); // Static never consults the cost table
    EXPECT_FALSE(d.profitable(511, 1024));
    EXPECT_TRUE(d.profitable(512, 1024));
}

TEST(CostModel, ProfitabilityIsMonotoneInListLength)
{
    // Every policy's profitable() is nondecreasing in the listed quad
    // count nq at fixed kq: a longer list never flips a stream back to
    // a listed pass.
    detail::StreamDecision d;
    d.policy = StreamPolicy::Measured;
    d.measured = true;
    d.gather_ps_per_step = 7;
    d.stream_ps_per_pair = 13;
    const std::size_t kq = 1024;
    bool prev = false;
    for (std::size_t nq = 0; nq <= kq; ++nq) {
        const bool cur = d.profitable(nq, kq);
        EXPECT_TRUE(cur || !prev)
            << "profitable() dropped from true to false at nq=" << nq;
        prev = cur;
    }
}

TEST(CostModel, AllPoliciesBitIdenticalOnBothEngines)
{
    PoolGuard pool_guard;
    PolicyGuard policy_guard;
    Rng rng(4242);
    const std::size_t m = 32, kk = 28, n = 24;
    const std::int32_t zp = 133;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk);

    for (int v : {4, 8}) {             // Pass4 vs Generic family
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
            for (StreamPolicy p :
                 {StreamPolicy::Static, StreamPolicy::Measured,
                  StreamPolicy::Stream, StreamPolicy::Gather}) {
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

    // Legacy engine: same four policies against the dense product.
    MatrixI32 lw = randomWeightCodes(rng, m, kk);
    MatrixI32 lx = randomWeightCodes(rng, kk, n);
    SlicedMatrix ws = sbrSliceMatrix(lw, 1);
    SlicedMatrix xs = sbrSliceMatrix(lx, 1);
    MatrixI64 dense = intGemm(lw, lx);
    for (StreamPolicy p :
         {StreamPolicy::Static, StreamPolicy::Measured,
          StreamPolicy::Stream, StreamPolicy::Gather}) {
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

TEST(CostModel, CalibrationRoundTripsExactly)
{
    detail::KernelCostTable t = syntheticTable(1043, 642);
    t.entries[0][1].measured = false; // a hole must survive too
    t.entries[0][1].gather_ps_per_step = 0;
    t.entries[0][1].stream_ps_per_pair = 0;

    const std::string text = detail::serializeKernelCosts(t);
    detail::KernelCostTable parsed;
    ASSERT_TRUE(detail::parseKernelCosts(text, &parsed));
    EXPECT_TRUE(parsed.loaded_from_disk);
    EXPECT_EQ(parsed.measurements, 0);
    EXPECT_EQ(parsed.version, t.version);
    EXPECT_EQ(parsed.isa_cap, t.isa_cap);
    for (std::size_t l = 0; l < kIsaLevelCount; ++l)
        for (std::size_t f = 0; f < detail::kKernelFamilyCount; ++f) {
            EXPECT_EQ(parsed.entries[l][f].measured,
                      t.entries[l][f].measured);
            EXPECT_EQ(parsed.entries[l][f].gather_ps_per_step,
                      t.entries[l][f].gather_ps_per_step);
            EXPECT_EQ(parsed.entries[l][f].stream_ps_per_pair,
                      t.entries[l][f].stream_ps_per_pair);
        }
    // Serializing the parse result reproduces the image byte-for-byte.
    EXPECT_EQ(detail::serializeKernelCosts(parsed), text);
}

TEST(CostModel, CalibrationRejectedOnVersionMismatch)
{
    detail::KernelCostTable t = syntheticTable(100, 100);
    t.version = detail::kKernelCostVersion + 1;
    // Serialized with a self-consistent checksum: rejection must come
    // from the version check, not checksum.
    detail::KernelCostTable parsed;
    EXPECT_FALSE(
        detail::parseKernelCosts(detail::serializeKernelCosts(t),
                                 &parsed));
}

TEST(CostModel, CalibrationRejectedOnChecksumMismatch)
{
    const std::string text =
        detail::serializeKernelCosts(syntheticTable(1043, 642));
    // Corrupt one cost digit; the structure still parses.
    std::string bad = text;
    const std::size_t pos = bad.find("\"gather_ps_per_step\": 1043");
    ASSERT_NE(pos, std::string::npos);
    bad[pos + sizeof("\"gather_ps_per_step\": ") - 1] = '9';
    detail::KernelCostTable parsed;
    EXPECT_FALSE(detail::parseKernelCosts(bad, &parsed));
    // Trailing garbage after the closing brace is rejected too.
    EXPECT_FALSE(detail::parseKernelCosts(text + "x", &parsed));
    EXPECT_FALSE(detail::parseKernelCosts("", &parsed));
    EXPECT_FALSE(detail::parseKernelCosts("not json", &parsed));
}

TEST(CostModel, CalibrationRejectedOnNarrowerIsaCoverage)
{
    // A file calibrated under a narrower build/host must re-measure,
    // not silently run the wider tiers on the static rule.
    if (supportedIsaCap() == IsaLevel::Scalar)
        GTEST_SKIP() << "host cap is scalar; no narrower cap exists";
    detail::KernelCostTable t = syntheticTable(100, 100);
    t.isa_cap = IsaLevel::Scalar;
    detail::KernelCostTable parsed;
    EXPECT_FALSE(
        detail::parseKernelCosts(detail::serializeKernelCosts(t),
                                 &parsed));
}

TEST(CostModel, PersistedCalibrationLoadsWithZeroMeasurements)
{
    CostDirGuard dir_guard("panacea_cost_model_persist");
    EXPECT_EQ(dir_guard.path(),
              (dir_guard.dir() / "kernel_costs.json").string());

    // First resolve on an empty dir measures and persists...
    EXPECT_FALSE(detail::reloadKernelCosts());
    const detail::KernelCostTable first = detail::kernelCostTable();
    EXPECT_GT(first.measurements, 0);
    ASSERT_TRUE(std::filesystem::exists(dir_guard.path()));

    // ...and the second resolve loads that file, measuring nothing.
    EXPECT_TRUE(detail::reloadKernelCosts());
    const detail::KernelCostTable &second = detail::kernelCostTable();
    EXPECT_EQ(second.measurements, 0);
    EXPECT_EQ(second.isa_cap, first.isa_cap);
    for (std::size_t l = 0; l < kIsaLevelCount; ++l)
        for (std::size_t f = 0; f < detail::kKernelFamilyCount; ++f) {
            EXPECT_EQ(second.entries[l][f].measured,
                      first.entries[l][f].measured);
            EXPECT_EQ(second.entries[l][f].gather_ps_per_step,
                      first.entries[l][f].gather_ps_per_step);
            EXPECT_EQ(second.entries[l][f].stream_ps_per_pair,
                      first.entries[l][f].stream_ps_per_pair);
        }
}

TEST(CostModel, CorruptCalibrationFileFallsBackToMeasuring)
{
    CostDirGuard dir_guard("panacea_cost_model_corrupt");
    writeFile(dir_guard.path(), "{\"version\": 999, garbage");

    // Reload must swallow the bad file (warn, re-measure, repersist) -
    // never throw into callers.
    EXPECT_FALSE(detail::reloadKernelCosts());
    EXPECT_GT(detail::kernelCostTable().measurements, 0);

    // The re-persisted file is valid again.
    EXPECT_TRUE(detail::reloadKernelCosts());
}

TEST(CostModel, PreviousVersionCalibrationIsRemeasured)
{
    // A file priced on the previous kernels (version
    // kKernelCostVersion - 1: int16 skip-list gathers) is valid and
    // checksummed, yet must be ignored and re-measured, and the fresh
    // calibration must replace it on disk.
    CostDirGuard dir_guard("panacea_cost_model_old_version");
    detail::KernelCostTable old = syntheticTable(1043, 642);
    old.version = detail::kKernelCostVersion - 1;
    writeFile(dir_guard.path(), detail::serializeKernelCosts(old));

    EXPECT_FALSE(detail::reloadKernelCosts());
    const detail::KernelCostTable &fresh = detail::kernelCostTable();
    EXPECT_GT(fresh.measurements, 0);
    EXPECT_EQ(fresh.version, detail::kKernelCostVersion);

    EXPECT_TRUE(detail::reloadKernelCosts());
    EXPECT_EQ(detail::kernelCostTable().version, detail::kKernelCostVersion);
}

TEST(CostModel, PoisonedCalibrationStillBitCorrect)
{
    // Wildly wrong costs may flip every stream/list choice; they must
    // never change a bit of output. Poison both directions: stream
    // 1000x too expensive (every pass with a list runs listed) and
    // listed quads 1000x too expensive (every pass streams).
    PoolGuard pool_guard;
    PolicyGuard policy_guard;
    setStreamPolicy(StreamPolicy::Measured);
    setParallelThreads(4);

    Rng rng(5151);
    const std::size_t m = 24, kk = 24, n = 20;
    AqsConfig cfg;
    MatrixI32 w_codes = randomWeightCodes(rng, m, kk);
    MatrixI32 x_codes = randomActivationCodes(rng, kk, n, 140, 0.6);
    WeightOperand w = prepareWeights(w_codes, 1, cfg);
    ActivationOperand x = prepareActivations(x_codes, 1, 140, cfg);
    AqsStats ref_stats;
    MatrixI64 ref = aqsGemmReference(w, x, cfg, &ref_stats);

    CostDirGuard dir_guard("panacea_cost_model_poison");
    for (auto [gather_ps, stream_ps] :
         {std::pair<std::uint64_t, std::uint64_t>{50, 50000},
          std::pair<std::uint64_t, std::uint64_t>{50000, 50}}) {
        writeFile(dir_guard.path(),
                  detail::serializeKernelCosts(
                      syntheticTable(gather_ps, stream_ps)));
        ASSERT_TRUE(detail::reloadKernelCosts());
        AqsStats new_stats;
        MatrixI64 got = aqsGemm(w, x, cfg, &new_stats);
        EXPECT_TRUE(got == ref)
            << "poison gather_ps=" << gather_ps
            << " stream_ps=" << stream_ps;
        expectStatsEqual(new_stats, ref_stats);
    }
}

} // namespace
} // namespace panacea
