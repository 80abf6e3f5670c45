/**
 * @file
 * Versioned binary serialization of prepared (compiled) models: the
 * on-disk operand format that makes the expensive AQS preparation
 * (calibration, SBR/DBS slicing, HO compression masks, folded bias) a
 * deployable artifact instead of per-process warm-up work. A model
 * written by one process and read by another is behaviourally
 * byte-identical to the freshly built original - same outputs, same
 * AqsStats, at every ISA level.
 *
 * The format (version 3) is SECTIONED and ZERO-COPY. All bulk payloads
 * live in 64-byte-aligned sections addressed by an offset directory,
 * laid out exactly as the kernels consume them, so the loader can mmap
 * the file read-only (util/mapped_file.h) and hand the operand structs
 * non-owning views straight into the mapping - no per-structure decode
 * copies, and every process mapping the same file shares one set of
 * physical pages. Loading without mmap uses the identical view decode
 * over one 64-byte-aligned arena copy of the file image. Files of any
 * other version (the retired copying v1 stream, and v2, which also
 * stored every weight HO plane's RLE streams) are rejected with
 * SerializeError; the disk tier prunes and rebuilds them and the
 * sweep removes them as stale.
 *
 * File layout (all scalar fields little-endian):
 *
 *   offset  0  "PNCM"                magic
 *   offset  4  u32  format version   3
 *   offset  8  u64  file size        must equal the real size; rejects
 *                                    truncation/trailing bytes before
 *                                    any payload is touched
 *   offset 16  u64  checksum         fnv1a64Striped over [24, size)
 *   offset 24  u64  section count    1 (META) + 4 per layer
 *   offset 32  directory             section count x {u64 offset,
 *                                    u64 size}; offsets 64-byte
 *                                    aligned, ascending, gaps zeroed
 *   ...        sections
 *
 * Section 0 is META: the scalar stream (cache key, ModelSpec,
 * ServeModelOptions, build ms, per-layer scalars and shapes) plus, for
 * each bulk payload, the index of the section that holds its bytes.
 * Each layer owns four bulk sections, in canonical order: slice planes,
 * total codes (i32), HO mask (u8), folded bias (i64). No RLE stream is
 * stored: the HO mask is the only input of the RLE traffic counters
 * (core/aqs_gemm.h), and the loader checks that it is exactly the
 * zero-vector mask of the HO plane. Bulk bytes are raw element bytes,
 * i.e. the host's layout - identical on every x86-64 host, the only
 * architecture the SIMD engine targets.
 *
 * SIGBUS / corruption discipline on the mapped path: the declared file
 * size, the striped checksum and every structural invariant (directory
 * bounds + alignment, shapes, slice ranges, the HO mask against the HO
 * plane, and every bit width, plane shift and DBS LO width against
 * what the build path emits for the layer) are validated BEFORE any
 * view is handed out, so a truncated or bit-flipped file fails with
 * SerializeError - it can never surface later as a fault inside a
 * kernel reading the mapping.
 *
 * Every reader-side structural violation (bad magic, unsupported
 * version, checksum mismatch, truncation, out-of-range enum, trailing
 * bytes, key/fingerprint mismatch) throws SerializeError; a load never
 * returns a partially-initialized model.
 *
 * This header is internal; the public entry points are
 * panacea::saveCompiledModel / loadCompiledModel in
 * include/panacea/serialize.h and the disk tier of PreparedModelCache.
 */

#ifndef PANACEA_SERVE_MODEL_SERIALIZE_H
#define PANACEA_SERVE_MODEL_SERIALIZE_H

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>

#include "serve/served_model.h"

namespace panacea {
namespace serve {

/** Any structural defect found while reading/writing a model file. */
class SerializeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Compiled-model format version (bumped on layout changes). */
inline constexpr std::uint32_t kCompiledModelFormatVersion = 3;

/** @return whether a reader of this build can load format version v. */
inline constexpr bool
isSupportedCompiledModelVersion(std::uint32_t v)
{
    return v == kCompiledModelFormatVersion;
}

/** Conventional file extension of compiled models. */
inline constexpr const char *kCompiledModelExtension = ".pncm";

/**
 * Serialize a prepared model to a stream; throws SerializeError when
 * the stream fails. The byte sequence is a pure function of the
 * prepared state - timing fields excluded except the recorded build
 * cost - so save -> load -> save reproduces identical bytes.
 */
void writeServedModel(std::ostream &out, const ServedModel &model);

/**
 * Deserialize a model; throws
 * SerializeError on any structural defect (see file header). The
 * returned model is immutable and ready to serve - no calibration,
 * slicing or HO mask work happens here. Stream loads always own their
 * payloads (the views point into an arena copy of the file image); use
 * loadServedModel() for the mmap-backed path.
 */
std::shared_ptr<const ServedModel> readServedModel(std::istream &in);

/** writeServedModel() to `path` (atomic: temp file + rename). */
void saveServedModel(const ServedModel &model, const std::string &path);

/**
 * Load a compiled model from `path`; SerializeError covers I/O too.
 *
 * With `allow_mmap` (the default) the file is mapped read-only and
 * consumed in place (model->mappedBytes() > 0); the copying decode is
 * the fallback for platforms without mmap, and PANACEA_MMAP=0 in the
 * environment (the operational escape hatch - it beats allow_mmap
 * regardless of the caller).
 */
std::shared_ptr<const ServedModel> loadServedModel(const std::string &path,
                                                   bool allow_mmap = true);

/**
 * @return the disk-tier file name of a cache key:
 * "<fnv1a64(key) in hex><.pncm>". Keys contain characters that are
 * hostile to file systems ('|', '#', ':'), so the name is a hash; the
 * key stored INSIDE the file is authoritative and verified on load.
 */
std::string compiledModelFileName(const std::string &key);

/**
 * Read ONLY the envelope (magic + format version) of a compiled-model
 * file - a few bytes, no payload decode. Throws SerializeError on a
 * missing/short file or bad magic; an out-of-date version is NOT an
 * error here (that is what the sweep is for).
 * @return the file's format version.
 */
std::uint32_t peekCompiledModelVersion(const std::string &path);

/** What a cache-directory maintenance pass removed (file counts). */
struct CacheDirReport
{
    std::uint64_t scanned = 0;      ///< .pncm files examined
    std::uint64_t staleVersion = 0; ///< removed: unsupported version
    std::uint64_t corrupt = 0;      ///< removed: bad magic / unreadable
    std::uint64_t evicted = 0;      ///< removed: size-cap LRU pruning
    std::uint64_t bytesFreed = 0;   ///< total bytes removed
    std::uint64_t bytesKept = 0;    ///< bytes remaining after the pass
};

/**
 * Enforce a size cap on a disk-tier directory: while the total size of
 * its .pncm files exceeds `max_bytes`, remove the least-recently-used
 * one (oldest write/access timestamp - PreparedModelCache refreshes
 * the timestamp on every disk hit). The most recent file is never
 * removed, so a single process's write-back always survives its own
 * prune. (In a directory SHARED by concurrent processes a racing
 * writer or disk hit can out-date an entry between its write and the
 * prune and get it evicted - which costs that process's next cold
 * start a rebuild, nothing else.) max_bytes == 0 means unbounded
 * (no-op). A missing directory is a no-op, never an error.
 */
CacheDirReport pruneCompiledModelDir(const std::string &dir,
                                     std::uint64_t max_bytes);

/**
 * Version-sweep a disk-tier directory: remove every .pncm file whose
 * envelope carries a format version this build cannot READ
 * (isSupportedCompiledModelVersion()) or whose envelope is
 * unreadable/corrupt. With max_bytes > 0,
 * follows up with pruneCompiledModelDir(). This is the library side of
 * the `panacea_cache_sweep` tool.
 */
CacheDirReport sweepCompiledModelDir(const std::string &dir,
                                     std::uint64_t max_bytes = 0);

} // namespace serve
} // namespace panacea

#endif // PANACEA_SERVE_MODEL_SERIALIZE_H
