#include "slicing/rle.h"

#include <algorithm>

#include "util/logging.h"
#include "util/parallel_for.h"

namespace panacea {

RleStream
RleStream::encode(std::span<const Slice> vectors, std::size_t num_vectors,
                  int vlen, Slice fill, int index_bits)
{
    panic_if(vlen <= 0, "RLE vlen must be positive");
    panic_if(index_bits <= 0 || index_bits > 16, "RLE index bits ",
             index_bits, " out of (0,16]");
    panic_if(vectors.size() != num_vectors * static_cast<std::size_t>(vlen),
             "RLE input size ", vectors.size(), " != ", num_vectors, "*",
             vlen);

    RleStream stream;
    stream.totalVectors_ = num_vectors;
    stream.fill_ = fill;
    stream.vlen_ = vlen;
    stream.indexBits_ = index_bits;

    const std::uint16_t max_skip =
        static_cast<std::uint16_t>((1u << index_bits) - 1);

    std::uint16_t run = 0;
    for (std::size_t k = 0; k < num_vectors; ++k) {
        std::span<const Slice> vec =
            vectors.subspan(k * vlen, static_cast<std::size_t>(vlen));
        bool compressible =
            std::all_of(vec.begin(), vec.end(),
                        [fill](Slice s) { return s == fill; });

        if (compressible && run < max_skip) {
            ++run;
            continue;
        }
        // Either a genuinely uncompressed vector, or a compressible one
        // that exceeded the skip budget and must be stored verbatim.
        RleEntry entry;
        entry.skip = run;
        entry.vectorIndex = static_cast<std::uint32_t>(k);
        stream.entries_.push_back(entry);
        stream.payloads_.insert(stream.payloads_.end(), vec.begin(),
                                vec.end());
        run = 0;
    }
    // A trailing run needs no entry: the decoder pads to totalVectors_.
    return stream;
}

std::vector<Slice>
RleStream::decode() const
{
    std::vector<Slice> out(totalVectors_ * static_cast<std::size_t>(vlen_),
                           fill_);
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        cursor += entries_[i].skip;
        panic_if(cursor != entries_[i].vectorIndex,
                 "RLE index decode mismatch at entry ", i);
        panic_if(cursor >= totalVectors_, "RLE decode past sequence end");
        std::span<const Slice> src = payload(i);
        std::copy(src.begin(), src.end(),
                  out.begin() + cursor * static_cast<std::size_t>(vlen_));
        ++cursor;
    }
    return out;
}

double
RleStream::compressionRatio() const
{
    if (totalVectors_ == 0)
        return 0.0;
    return 1.0 - static_cast<double>(entries_.size()) /
                     static_cast<double>(totalVectors_);
}

std::size_t
RleStream::encodedBits() const
{
    return entries_.size() *
           (static_cast<std::size_t>(vlen_) * 4 +
            static_cast<std::size_t>(indexBits_));
}

std::size_t
RleStream::denseBits() const
{
    return totalVectors_ * static_cast<std::size_t>(vlen_) * 4;
}

std::span<const Slice>
RleStream::payload(std::size_t i) const
{
    panic_if(i >= entries_.size(), "RLE payload index out of range");
    return {payloads_.data() + i * static_cast<std::size_t>(vlen_),
            static_cast<std::size_t>(vlen_)};
}

RleEntryCounter::RleEntryCounter(int index_bits)
{
    panic_if(index_bits <= 0 || index_bits > 16, "RLE index bits ",
             index_bits, " out of (0,16]");
    maxSkip_ = (1u << index_bits) - 1;
}

std::uint64_t
rleStoredCount(const std::uint8_t *flags, std::size_t count,
               std::size_t stride, int index_bits)
{
    RleEntryCounter counter(index_bits);
    for (std::size_t i = 0; i < count; ++i)
        counter.add(flags[i * stride] != 0);
    return counter.stored();
}

std::vector<RleStream>
encodeWeightPlane(const Matrix<Slice> &plane, int v, int index_bits)
{
    panic_if(plane.rows() % v != 0, "weight rows ", plane.rows(),
             " not divisible by v=", v);

    // Parallel over row bands: stream g depends only on band g, and
    // every chunk writes its own pre-sized slots, so the result is
    // identical for any thread count.
    std::vector<RleStream> streams(plane.rows() / v);
    parallelFor(0, streams.size(), [&](std::size_t b, std::size_t e,
                                       int) {
        std::vector<Slice> scratch(plane.cols() *
                                   static_cast<std::size_t>(v));
        for (std::size_t g = b; g < e; ++g) {
            // Gather column vectors: vector k holds rows [g*v, g*v+v)
            // of column k.
            for (std::size_t k = 0; k < plane.cols(); ++k)
                for (int i = 0; i < v; ++i)
                    scratch[k * v + i] = plane(g * v + i, k);
            streams[g] = RleStream::encode(scratch, plane.cols(), v,
                                           /*fill=*/0, index_bits);
        }
    });
    return streams;
}

std::vector<RleStream>
encodeActivationPlane(const Matrix<Slice> &plane, int v, Slice r,
                      int index_bits)
{
    panic_if(plane.cols() % v != 0, "activation cols ", plane.cols(),
             " not divisible by v=", v);

    // Parallel over column bands (disjoint pre-sized slots; see
    // encodeWeightPlane).
    std::vector<RleStream> streams(plane.cols() / v);
    parallelFor(0, streams.size(), [&](std::size_t b, std::size_t e,
                                       int) {
        std::vector<Slice> scratch(plane.rows() *
                                   static_cast<std::size_t>(v));
        for (std::size_t g = b; g < e; ++g) {
            // Gather row vectors: vector k holds columns [g*v, g*v+v)
            // of row k.
            for (std::size_t k = 0; k < plane.rows(); ++k)
                for (int i = 0; i < v; ++i)
                    scratch[k * v + i] = plane(k, g * v + i);
            streams[g] = RleStream::encode(scratch, plane.rows(), v, r,
                                           index_bits);
        }
    });
    return streams;
}

} // namespace panacea
