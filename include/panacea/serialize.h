/**
 * @file
 * Save/load of compiled models: the versioned little-endian binary
 * format that turns the expensive AQS preparation into a deployable
 * artifact. A model saved here and loaded in another process is
 * behaviourally byte-identical to the freshly compiled original -
 * same outputs, same AqsStats, at every ISA level - and loading does
 * zero calibration/slicing/HO-mask work.
 *
 * The format (version 3) stores four bulk sections per layer - slice
 * planes, total codes, HO mask, folded bias - and no RLE streams: the
 * statistics count RLE traffic from the HO mask. Every bulk payload
 * sits in a 64-byte-aligned section, so loadCompiledModel() can map
 * the file read-only and serve the weights in place: cold-start cost
 * becomes page mapping plus header validation, and processes loading
 * the same file share one set of physical weight pages
 * (CompiledModel::mappedBytes() reports the mapping). The full layout
 * is documented in src/serve/model_serialize.h;
 * tests/test_model_serialize.cpp pins round-trip byte identity and
 * every rejection path. Any structural defect - bad magic, unknown
 * version, checksum mismatch, truncation, fingerprint mismatch -
 * throws SerializeError; a load never returns a half-built model.
 *
 * Runtime::compile() with RuntimeOptions::cacheDir automates this
 * (save on build, load on cold start); these entry points are for
 * explicit artifact handling (CI, deployment pipelines).
 */

#ifndef PANACEA_PUBLIC_SERIALIZE_H
#define PANACEA_PUBLIC_SERIALIZE_H

#include <string>

#include "panacea/compiled_model.h"
#include "serve/model_serialize.h"

namespace panacea {

/** Structural defect in a compiled-model file (see file header). */
using SerializeError = serve::SerializeError;

/** Compiled-model file format version (sectioned, mappable; 3). */
inline constexpr std::uint32_t kCompiledModelFormatVersion =
    serve::kCompiledModelFormatVersion;

/**
 * Write a compiled model to `path` (atomically: temp file + rename).
 * The bytes are a pure function of the prepared state, so
 * save -> load -> save reproduces the identical file.
 */
inline void
saveCompiledModel(const CompiledModel &model, const std::string &path)
{
    serve::saveServedModel(*model.shared(), path);
}

/**
 * Read a compiled model from `path`; throws SerializeError. With
 * `allow_mmap` (the default) the file is mapped read-only and its
 * weights served in place (CompiledModel::mappedBytes() > 0); the
 * copying decode covers mmap-less platforms and PANACEA_MMAP=0 (which
 * wins over the caller). Both paths produce bit-identical models.
 */
inline CompiledModel
loadCompiledModel(const std::string &path, bool allow_mmap = true)
{
    return CompiledModel(serve::loadServedModel(path, allow_mmap));
}

/**
 * @return the format version stored in a compiled-model file's
 * envelope (a few bytes read, no payload decode). Throws
 * SerializeError on a missing/short file or bad magic.
 */
inline std::uint32_t
peekCompiledModelVersion(const std::string &path)
{
    return serve::peekCompiledModelVersion(path);
}

/**
 * loadCompiledModel() plus an identity check: the file's fingerprint
 * must equal serveModelKey(spec, opts) - i.e. the artifact must be
 * THE compiled form of exactly this model and configuration. Use it
 * when the file name is untrusted (deployment manifests, CI
 * artifacts); throws SerializeError on mismatch.
 */
inline CompiledModel
loadCompiledModelFor(const std::string &path, const ModelSpec &spec,
                     const CompileOptions &opts = {},
                     bool allow_mmap = true)
{
    CompiledModel model = loadCompiledModel(path, allow_mmap);
    const std::string want = serve::serveModelKey(spec, opts);
    if (model.key() != want)
        throw SerializeError("compiled model at " + path +
                             " holds key '" + model.key() +
                             "', expected '" + want + "'");
    return model;
}

} // namespace panacea

#endif // PANACEA_PUBLIC_SERIALIZE_H
