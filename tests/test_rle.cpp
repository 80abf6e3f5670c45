/**
 * @file
 * Run-length encoding tests (paper Fig. 7(a)): round trips, the skip
 * budget of w-bit indices, verbatim storage of over-budget runs,
 * trailing-run elision and traffic accounting, and the mask-only entry
 * count (rleStoredCount) against the encoder at every index width.
 */

#include <gtest/gtest.h>

#include "slicing/rle.h"
#include "util/random.h"

namespace panacea {
namespace {

std::vector<Slice>
makeVectors(Rng &rng, std::size_t count, int vlen, Slice fill,
            double fill_prob)
{
    std::vector<Slice> out(count * static_cast<std::size_t>(vlen));
    for (std::size_t i = 0; i < count; ++i) {
        bool compressed = rng.bernoulli(fill_prob);
        for (int j = 0; j < vlen; ++j) {
            out[i * vlen + j] =
                compressed ? fill
                           : static_cast<Slice>(rng.uniformInt(0, 15));
        }
    }
    return out;
}

TEST(Rle, RoundTripRandom)
{
    Rng rng(21);
    for (double p : {0.0, 0.3, 0.7, 0.95, 1.0}) {
        std::vector<Slice> vectors = makeVectors(rng, 200, 4, 10, p);
        RleStream stream = RleStream::encode(vectors, 200, 4, 10, 4);
        EXPECT_EQ(stream.decode(), vectors) << "fill prob " << p;
    }
}

TEST(Rle, AllCompressedNeedsNoEntries)
{
    std::vector<Slice> vectors(40, 5);  // 10 vectors of fill=5
    RleStream stream = RleStream::encode(vectors, 10, 4, 5, 4);
    EXPECT_EQ(stream.storedCount(), 0u);
    EXPECT_EQ(stream.decode(), vectors);
    EXPECT_DOUBLE_EQ(stream.compressionRatio(), 1.0);
    EXPECT_EQ(stream.encodedBits(), 0u);
}

TEST(Rle, OverBudgetRunStoredVerbatim)
{
    // 20 compressed vectors in a row with 4-bit indices (max skip 15):
    // the 16th must be stored verbatim, the remaining 4 elided as a
    // trailing run... unless a stored vector follows.
    std::vector<Slice> vectors(21 * 4, 7);
    for (int j = 0; j < 4; ++j)
        vectors[20 * 4 + j] = 1;  // final vector uncompressed
    RleStream stream = RleStream::encode(vectors, 21, 4, 7, 4);
    // Entries: the verbatim fill vector at index 15 and the real one at
    // index 20.
    ASSERT_EQ(stream.storedCount(), 2u);
    EXPECT_EQ(stream.entries()[0].skip, 15);
    EXPECT_EQ(stream.entries()[0].vectorIndex, 15u);
    EXPECT_EQ(stream.entries()[1].skip, 4);
    EXPECT_EQ(stream.entries()[1].vectorIndex, 20u);
    EXPECT_EQ(stream.decode(), vectors);
}

TEST(Rle, WiderIndexExtendsBudget)
{
    std::vector<Slice> vectors(21 * 4, 7);
    for (int j = 0; j < 4; ++j)
        vectors[20 * 4 + j] = 1;
    RleStream stream = RleStream::encode(vectors, 21, 4, 7, 8);
    // With 8-bit indices the 20-vector run fits in one skip.
    ASSERT_EQ(stream.storedCount(), 1u);
    EXPECT_EQ(stream.entries()[0].skip, 20);
    EXPECT_EQ(stream.decode(), vectors);
}

TEST(Rle, TrafficAccounting)
{
    Rng rng(22);
    std::vector<Slice> vectors = makeVectors(rng, 100, 4, 0, 0.8);
    RleStream stream = RleStream::encode(vectors, 100, 4, 0, 4);
    EXPECT_EQ(stream.denseBits(), 100u * 16);
    EXPECT_EQ(stream.encodedBits(), stream.storedCount() * (16 + 4));
    EXPECT_LT(stream.encodedBits(), stream.denseBits());
}

TEST(Rle, WeightPlaneStreams)
{
    // 8x3 plane, v=4: two row bands. Band 0 columns {0,2} all-zero.
    Matrix<Slice> plane(8, 3, 0);
    for (int r = 0; r < 4; ++r)
        plane(r, 1) = static_cast<Slice>(r + 1);
    for (int r = 4; r < 8; ++r)
        for (int c = 0; c < 3; ++c)
            plane(r, c) = 3;

    auto streams = encodeWeightPlane(plane, 4, 4);
    ASSERT_EQ(streams.size(), 2u);
    EXPECT_EQ(streams[0].storedCount(), 1u);  // only column 1 stored
    EXPECT_EQ(streams[0].entries()[0].vectorIndex, 1u);
    EXPECT_EQ(streams[1].storedCount(), 3u);  // nothing compressible
}

TEST(Rle, ActivationPlaneStreams)
{
    // 3x8 plane, v=4: two column bands; fill value r=9.
    Matrix<Slice> plane(3, 8, 9);
    plane(1, 0) = 2;  // row 1, band 0 not compressible
    auto streams = encodeActivationPlane(plane, 4, 9, 4);
    ASSERT_EQ(streams.size(), 2u);
    EXPECT_EQ(streams[0].storedCount(), 1u);
    EXPECT_EQ(streams[0].entries()[0].vectorIndex, 1u);
    EXPECT_EQ(streams[1].storedCount(), 0u);
}

/**
 * Encode one flag row (vlen 4, fill 5; a stored vector differs from the
 * fill in one slice) and check rleStoredCount() on it twice: as a
 * contiguous row, and as column 1 of a 3-wide matrix whose other
 * columns hold the inverted flags.
 */
void
expectCountMatchesEncoder(const std::vector<std::uint8_t> &flags,
                          int index_bits)
{
    const Slice fill = 5;
    std::vector<Slice> vectors(flags.size() * 4, fill);
    std::vector<std::uint8_t> strided(flags.size() * 3);
    for (std::size_t i = 0; i < flags.size(); ++i) {
        if (flags[i] == 0)
            vectors[i * 4 + i % 4] = static_cast<Slice>(fill + 1);
        strided[i * 3] = strided[i * 3 + 2] = flags[i] == 0;
        strided[i * 3 + 1] = flags[i];
    }
    const std::uint64_t want =
        RleStream::encode(vectors, flags.size(), 4, fill, index_bits)
            .storedCount();
    EXPECT_EQ(rleStoredCount(flags.data(), flags.size(), 1, index_bits),
              want)
        << "contiguous, " << index_bits << "-bit, " << flags.size()
        << " vectors";
    EXPECT_EQ(rleStoredCount(strided.data() + 1, flags.size(), 3,
                             index_bits),
              want)
        << "strided, " << index_bits << "-bit, " << flags.size()
        << " vectors";
}

TEST(Rle, StoredCountMatchesEncoderAtEveryIndexWidth)
{
    Rng rng(0x41e);
    for (int bits = 1; bits <= 16; ++bits) {
        const std::size_t budget = (std::size_t{1} << bits) - 1;
        // Runs at, one past and two past the skip budget, each closed
        // by a stored vector or left trailing, and repeated back to
        // back.
        for (std::size_t run : {budget, budget + 1, budget + 2}) {
            std::vector<std::uint8_t> closed(run, 1);
            closed.push_back(0);
            expectCountMatchesEncoder(closed, bits);
            expectCountMatchesEncoder(std::vector<std::uint8_t>(run, 1),
                                      bits);
            std::vector<std::uint8_t> lead_in{0, 1, 0};
            lead_in.insert(lead_in.end(), run, 1);
            expectCountMatchesEncoder(lead_in, bits);
            std::vector<std::uint8_t> twice = closed;
            twice.insert(twice.end(), closed.begin(), closed.end());
            twice.insert(twice.end(), run, 1);
            expectCountMatchesEncoder(twice, bits);
        }
        // All-compressible over several budgets, none-compressible, and
        // the empty stream.
        expectCountMatchesEncoder(
            std::vector<std::uint8_t>(3 * budget + 7, 1), bits);
        expectCountMatchesEncoder(std::vector<std::uint8_t>(97, 0), bits);
        expectCountMatchesEncoder({}, bits);
        // Seeded rows, dense to nearly all compressible.
        for (double p : {0.2, 0.7, 0.95, 0.995}) {
            std::vector<std::uint8_t> flags(2000);
            for (auto &f : flags)
                f = rng.bernoulli(p) ? 1 : 0;
            expectCountMatchesEncoder(flags, bits);
        }
    }
}

TEST(RleDeath, SizeMismatch)
{
    std::vector<Slice> vectors(10);
    EXPECT_DEATH(RleStream::encode(vectors, 4, 4, 0, 4), "input size");
}

} // namespace
} // namespace panacea
