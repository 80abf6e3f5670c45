/**
 * @file
 * FNV-1a 64-bit hashing, shared by every site that must agree on the
 * exact bit pattern: the compiled-model file checksum and cache-file
 * name (serve/model_serialize.cpp), the ModelSpec fingerprint inside
 * the cache key (serve/served_model.cpp). One definition, so the
 * constants cannot silently diverge between writers and readers.
 *
 * FNV-1a is an integrity/bucketing hash, NOT a MAC: anyone can
 * recompute it, so checksummed files are tamper-evident against
 * corruption only, never against a deliberate author (which is why
 * the deserializer still validates every structural invariant).
 */

#ifndef PANACEA_UTIL_FNV_H
#define PANACEA_UTIL_FNV_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace panacea {

inline constexpr std::uint64_t fnv1a64Offset = 1469598103934665603ull;
inline constexpr std::uint64_t fnv1a64Prime = 1099511628211ull;

/** Streaming accumulator: seed with fnv1a64Offset, fold bytes/words. */
inline std::uint64_t
fnv1a64Byte(std::uint64_t h, std::uint8_t byte)
{
    h ^= byte;
    h *= fnv1a64Prime;
    return h;
}

/** Fold a 64-bit word as one unit (the cache-key fingerprint form). */
inline std::uint64_t
fnv1a64Word(std::uint64_t h, std::uint64_t word)
{
    h ^= word;
    h *= fnv1a64Prime;
    return h;
}

/** One-shot hash of a byte buffer. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size,
        std::uint64_t h = fnv1a64Offset)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        h = fnv1a64Byte(h, bytes[i]);
    return h;
}

/**
 * Bulk-buffer checksum: 8 independent FNV-1a lanes over interleaved
 * 8-byte words, lane states folded into one digest with fnv1a64Word.
 *
 * The serial fnv1a64 carries a xor-multiply dependency from byte to
 * byte (~1 byte per multiply latency), which is far too slow to
 * checksum a tens-of-MB mapped model before handing out views. Eight
 * lanes break the chain so the multiplies pipeline; the tail (size %
 * 64 bytes) is folded serially. This is a DIFFERENT function from
 * fnv1a64 - the two are not interchangeable. The compiled-model file
 * checksum is striped; its cache-file name hash is serial.
 */
inline std::uint64_t
fnv1a64Striped(const void *data, std::size_t size)
{
    constexpr int lanes = 8;
    std::uint64_t h[lanes];
    for (int l = 0; l < lanes; ++l)
        h[l] = fnv1a64Word(fnv1a64Offset, static_cast<std::uint64_t>(l));

    const auto *bytes = static_cast<const unsigned char *>(data);
    const std::size_t words = size / 8;
    const std::size_t rounds = words / lanes;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (int l = 0; l < lanes; ++l) {
            // Little-endian word assembly. On LE hosts a plain load IS
            // the LE word, and the shift-or form costs ~3x the whole
            // loop (it defeats load coalescing), so take the memcpy
            // path there; the portable assembly remains for BE hosts -
            // both produce the same digest for the same byte stream.
            std::uint64_t w;
            const unsigned char *p = bytes + (r * lanes + l) * 8;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
            std::memcpy(&w, p, 8);
#else
            w = 0;
            for (int b = 0; b < 8; ++b)
                w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
#endif
            h[l] = fnv1a64Word(h[l], w);
        }
    }

    std::uint64_t digest = fnv1a64Word(fnv1a64Offset, size);
    for (int l = 0; l < lanes; ++l)
        digest = fnv1a64Word(digest, h[l]);
    for (std::size_t i = rounds * lanes * 8; i < size; ++i)
        digest = fnv1a64Byte(digest, bytes[i]);
    return digest;
}

} // namespace panacea

#endif // PANACEA_UTIL_FNV_H
