/**
 * @file
 * Determinism tests for the parallelized operand-preparation stages:
 * SBR/straightforward/DBS slicing, RLE plane encoding, HO mask
 * construction and the full prepareWeights / prepareActivations
 * pipelines must produce byte-identical outputs at 1/2/4/8 pool
 * threads (the 1-thread run is the serial baseline).
 */

#include <gtest/gtest.h>

#include "core/aqs_gemm.h"
#include "pool_guard.h"
#include "slicing/sbr.h"
#include "slicing/rle.h"
#include "slicing/slice_tensor.h"
#include "slicing/sparsity.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace panacea {
namespace {

constexpr int kThreadCounts[] = {2, 4, 8};

MatrixI32
randomSignedCodes(Rng &rng, std::size_t rows, std::size_t cols, int bits)
{
    const std::int32_t lo = -(1 << (bits - 1));
    const std::int32_t hi = (1 << (bits - 1)) - 1;
    MatrixI32 codes(rows, cols);
    for (auto &c : codes.data())
        c = static_cast<std::int32_t>(rng.uniformInt(lo, hi));
    return codes;
}

MatrixI32
randomUnsignedCodes(Rng &rng, std::size_t rows, std::size_t cols, int bits)
{
    const std::int32_t hi = (1 << bits) - 1;
    MatrixI32 codes(rows, cols);
    for (auto &c : codes.data())
        c = static_cast<std::int32_t>(rng.uniformInt(0, hi));
    return codes;
}

void
expectSlicedEqual(const SlicedMatrix &a, const SlicedMatrix &b)
{
    ASSERT_EQ(a.levels(), b.levels());
    for (std::size_t l = 0; l < a.levels(); ++l) {
        EXPECT_TRUE(a.planes[l].data == b.planes[l].data)
            << "plane " << l << " differs";
        EXPECT_EQ(a.planes[l].shift, b.planes[l].shift);
    }
}

void
expectStreamsEqual(const std::vector<RleStream> &a,
                   const std::vector<RleStream> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].storedCount(), b[s].storedCount()) << "stream " << s;
        EXPECT_EQ(a[s].totalCount(), b[s].totalCount());
        for (std::size_t i = 0; i < a[s].storedCount(); ++i) {
            EXPECT_EQ(a[s].entries()[i].skip, b[s].entries()[i].skip);
            EXPECT_EQ(a[s].entries()[i].vectorIndex,
                      b[s].entries()[i].vectorIndex);
            std::span<const Slice> pa = a[s].payload(i);
            std::span<const Slice> pb = b[s].payload(i);
            EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()));
        }
    }
}

TEST(PrepParallel, SlicingMatchesSerialAcrossThreads)
{
    PoolGuard guard;
    Rng rng(11);
    MatrixI32 w_codes = randomSignedCodes(rng, 37, 23, sbrBits(2));
    MatrixI32 x_codes = randomUnsignedCodes(rng, 29, 31, 12);
    MatrixI32 dbs_codes = randomUnsignedCodes(rng, 29, 31, 8);

    setParallelThreads(1);
    const SlicedMatrix w_serial = sbrSliceMatrix(w_codes, 2);
    const SlicedMatrix x_serial = activationSliceMatrix(x_codes, 2);
    const SlicedMatrix d_serial = dbsSliceMatrix(dbs_codes, 5);

    for (int threads : kThreadCounts) {
        setParallelThreads(threads);
        expectSlicedEqual(sbrSliceMatrix(w_codes, 2), w_serial);
        expectSlicedEqual(activationSliceMatrix(x_codes, 2), x_serial);
        expectSlicedEqual(dbsSliceMatrix(dbs_codes, 5), d_serial);
    }
}

TEST(PrepParallel, RleEncodingMatchesSerialAcrossThreads)
{
    PoolGuard guard;
    Rng rng(22);
    // Biased planes so runs of compressible vectors actually occur.
    Matrix<Slice> w_plane(24, 40);
    for (auto &s : w_plane.data())
        s = rng.bernoulli(0.7) ? 0
                               : static_cast<Slice>(rng.uniformInt(-8, 7));
    Matrix<Slice> x_plane(40, 24);
    for (auto &s : x_plane.data())
        s = rng.bernoulli(0.7) ? 9
                               : static_cast<Slice>(rng.uniformInt(0, 15));

    setParallelThreads(1);
    const auto w_serial = encodeWeightPlane(w_plane, 4, 4);
    const auto x_serial = encodeActivationPlane(x_plane, 4, 9, 4);

    for (int threads : kThreadCounts) {
        setParallelThreads(threads);
        expectStreamsEqual(encodeWeightPlane(w_plane, 4, 4), w_serial);
        expectStreamsEqual(encodeActivationPlane(x_plane, 4, 9, 4),
                           x_serial);
    }
}

TEST(PrepParallel, MaskBuildMatchesSerialAcrossThreads)
{
    PoolGuard guard;
    Rng rng(33);
    Matrix<Slice> w_plane(32, 20);
    for (auto &s : w_plane.data())
        s = rng.bernoulli(0.6) ? 0
                               : static_cast<Slice>(rng.uniformInt(-8, 7));
    Matrix<Slice> x_plane(20, 32);
    for (auto &s : x_plane.data())
        s = rng.bernoulli(0.6) ? 8
                               : static_cast<Slice>(rng.uniformInt(0, 15));

    setParallelThreads(1);
    const MatrixU8 w_serial = weightVectorMask(w_plane, 4);
    const MatrixU8 x_serial = activationVectorMask(x_plane, 4, 8);

    for (int threads : kThreadCounts) {
        setParallelThreads(threads);
        EXPECT_TRUE(weightVectorMask(w_plane, 4) == w_serial);
        EXPECT_TRUE(activationVectorMask(x_plane, 4, 8) == x_serial);
    }
}

TEST(PrepParallel, FullOperandPreparationMatchesSerialAcrossThreads)
{
    PoolGuard guard;
    Rng rng(44);
    const std::int32_t zp = 137;
    MatrixI32 w_codes = randomSignedCodes(rng, 32, 24, sbrBits(1));
    MatrixI32 x_codes = randomUnsignedCodes(rng, 24, 28, 8);

    AqsConfig cfg;
    setParallelThreads(1);
    const WeightOperand w_serial = prepareWeights(w_codes, 1, cfg);
    const ActivationOperand x_serial =
        prepareActivations(x_codes, 1, zp, cfg);

    for (int threads : kThreadCounts) {
        setParallelThreads(threads);
        WeightOperand w = prepareWeights(w_codes, 1, cfg);
        ActivationOperand x = prepareActivations(x_codes, 1, zp, cfg);

        expectSlicedEqual(w.sliced, w_serial.sliced);
        EXPECT_TRUE(w.totalCodes == w_serial.totalCodes);
        EXPECT_TRUE(w.hoMask == w_serial.hoMask);

        expectSlicedEqual(x.sliced, x_serial.sliced);
        EXPECT_EQ(x.r, x_serial.r);
        EXPECT_TRUE(x.hoMask == x_serial.hoMask);
        EXPECT_EQ(x.quadPlanes, x_serial.quadPlanes);
    }
}

} // namespace
} // namespace panacea
