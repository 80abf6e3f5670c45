/**
 * @file
 * Run-length encoding of compressed slice-vectors (paper §III-B Fig. 7a).
 *
 * Along the reduction (K) axis, compressible vectors (all-zero weight
 * vectors / all-r activation vectors) are dropped; each stored vector
 * carries a skip index counting the compressed vectors preceding it.
 * With w-bit indices at most 2^w - 1 successive vectors can be skipped
 * per index; a compressible vector beyond that budget is stored verbatim
 * (it still computes correctly - it is simply not skipped). Trailing
 * compressed vectors need no entry: the decoder knows the sequence
 * length.
 */

#ifndef PANACEA_SLICING_RLE_H
#define PANACEA_SLICING_RLE_H

#include <cstdint>
#include <span>
#include <vector>

#include "slicing/slice_types.h"
#include "util/matrix.h"

namespace panacea {

/** One stored (uncompressed) vector in an RLE stream. */
struct RleEntry
{
    std::uint16_t skip = 0;        ///< compressed vectors before this one
    std::uint32_t vectorIndex = 0; ///< absolute position (decoder output)
};

/**
 * An RLE-compressed sequence of slice-vectors along one reduction axis.
 */
class RleStream
{
  public:
    /**
     * Encode a flattened sequence of num_vectors vectors of vlen slices.
     *
     * @param vectors     contiguous vector data (num_vectors * vlen)
     * @param num_vectors sequence length
     * @param vlen        slices per vector (paper: 4)
     * @param fill        the compressible value (0 for weights, r for
     *                    asymmetric activations)
     * @param index_bits  RLE index width (paper: 4)
     */
    static RleStream encode(std::span<const Slice> vectors,
                            std::size_t num_vectors, int vlen, Slice fill,
                            int index_bits);

    /** Reconstruct the full flattened vector sequence. */
    std::vector<Slice> decode() const;

    /** @return number of stored (uncompressed) entries. */
    std::size_t storedCount() const { return entries_.size(); }

    /** @return total vectors in the original sequence. */
    std::size_t totalCount() const { return totalVectors_; }

    /** @return fraction of vectors elided by compression. */
    double compressionRatio() const;

    /** @return bits of the encoded stream: per entry vlen*4 + index. */
    std::size_t encodedBits() const;

    /** @return bits of the dense (uncompressed) sequence. */
    std::size_t denseBits() const;

    /** @return entry metadata (skip counts + absolute indices). */
    std::span<const RleEntry> entries() const { return entries_; }

    /** @return payload slices of entry i (vlen slices). */
    std::span<const Slice> payload(std::size_t i) const;

    /** @return all payload slices (storedCount() * vlen, entry order). */
    std::span<const Slice> payloads() const { return payloads_; }

    /** @return the compressible fill value. */
    Slice fill() const { return fill_; }
    /** @return slices per vector. */
    int vlen() const { return vlen_; }
    /** @return RLE index bit-width. */
    int indexBits() const { return indexBits_; }

  private:
    std::vector<RleEntry> entries_;
    std::vector<Slice> payloads_;   ///< entries_.size() * vlen_ slices
    std::size_t totalVectors_ = 0;
    Slice fill_ = 0;
    int vlen_ = defaultVectorLength;
    int indexBits_ = defaultRleIndexBits;
};

/**
 * The stored-entry rule of RleStream::encode() over compressible flags
 * alone, one stream at a time: add() one flag per vector in stream
 * order. A compressible vector is elided while the current run is
 * shorter than 2^index_bits - 1; past that budget it is stored and the
 * run restarts; a trailing run stores nothing. stored() then equals
 * the storedCount() of the encoded stream, without building it.
 */
class RleEntryCounter
{
  public:
    explicit RleEntryCounter(int index_bits);

    /** Account the next vector of the stream. */
    void
    add(bool compressible)
    {
        if (compressible && run_ < maxSkip_) {
            ++run_;
            return;
        }
        ++stored_;
        run_ = 0;
    }

    /** @return stored entries of the stream so far. */
    std::uint64_t stored() const { return stored_; }

  private:
    std::uint32_t maxSkip_ = 0;
    std::uint32_t run_ = 0;
    std::uint64_t stored_ = 0;
};

/**
 * Stored-entry count of the RLE stream over count vectors whose
 * compressible flags (nonzero = compressible) sit at flags[i * stride]:
 * RleStream::encode(...).storedCount() from an HO mask row (stride 1)
 * or column (stride = mask width), without encoding.
 */
std::uint64_t rleStoredCount(const std::uint8_t *flags, std::size_t count,
                             std::size_t stride, int index_bits);

/**
 * Encode a weight HO plane: one stream per v-row band, vectors are
 * v x 1 columns streamed along K (the column axis), fill value 0.
 */
std::vector<RleStream> encodeWeightPlane(const Matrix<Slice> &plane, int v,
                                         int index_bits);

/**
 * Encode an activation HO plane: one stream per v-column band, vectors
 * are 1 x v rows streamed along K (the row axis), fill value r.
 */
std::vector<RleStream> encodeActivationPlane(const Matrix<Slice> &plane,
                                             int v, Slice r, int index_bits);

} // namespace panacea

#endif // PANACEA_SLICING_RLE_H
