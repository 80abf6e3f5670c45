/**
 * @file
 * panacea::CompiledModel - an immutable, prepared model: every unique
 * GEMM layer calibrated through the full Panacea PTQ pipeline with its
 * weight operand SBR-sliced, RLE-encoded and HO-compressed exactly
 * once. This is the deployable artifact of the library: compile (or
 * load) it once, then serve any number of requests through
 * panacea::Session, save it with panacea::saveCompiledModel(), ship
 * the file, and reload it in another process with zero preparation
 * work (panacea/serialize.h).
 *
 * A CompiledModel is a cheap shared handle (copying shares the
 * underlying prepared state); all observers are const and
 * thread-safe.
 */

#ifndef PANACEA_PUBLIC_COMPILED_MODEL_H
#define PANACEA_PUBLIC_COMPILED_MODEL_H

#include <memory>
#include <string>

#include "serve/served_model.h"

namespace panacea {

/**
 * Options fixed at compile (preparation) time. Every field
 * participates in the model's cache-key fingerprint; see
 * serve/served_model.h for the field list (vector length v, RLE index
 * width, skip mode, ZPM/DBS, bit-width override, tensor seed,
 * calibration size, layer cap).
 */
using CompileOptions = serve::ServeModelOptions;

/** A prepared, immutable model; see the file header. */
class CompiledModel
{
  public:
    /** An empty (invalid) handle; compile or load to get a real one. */
    CompiledModel() = default;

    /**
     * Wrap an already-prepared model. This is the bridge the Runtime,
     * the loader and the serving internals use; application code
     * normally receives CompiledModels from Runtime::compile() or
     * loadCompiledModel() instead of constructing them.
     */
    explicit CompiledModel(
        std::shared_ptr<const serve::ServedModel> model)
        : model_(std::move(model))
    {}

    /** @return whether this handle holds a model. */
    bool valid() const { return model_ != nullptr; }

    /** @return the cache-key fingerprint (model + compile options). */
    const std::string &key() const { return model_->key(); }
    /** @return the source model description. */
    const ModelSpec &spec() const { return model_->spec(); }
    /** @return the options the model was compiled with. */
    const CompileOptions &options() const { return model_->options(); }
    /** @return number of served (prepared) layers. */
    std::size_t layerCount() const { return model_->layerCount(); }
    /** @return input features K of the first layer. */
    std::size_t inputFeatures() const { return model_->inputFeatures(); }
    /** @return output features M of the last layer. */
    std::size_t outputFeatures() const
    {
        return model_->outputFeatures();
    }
    /** @return dense-equivalent MACs one activation column costs. */
    std::uint64_t macsPerColumn() const
    {
        return model_->macsPerColumn();
    }
    /**
     * @return wall time the ORIGINAL preparation spent. For a model
     * loaded from disk this is what the load avoided re-spending, not
     * the load time itself.
     */
    double buildMs() const { return model_->buildMs(); }
    /**
     * @return bytes of the read-only file mapping this model's weight
     * payloads are served from (0 when the model owns its payloads,
     * i.e. it was compiled in-process or loaded with mmap disabled).
     * Non-zero means the weight bytes
     * are shared with every other process mapping the same .pncm
     * file - the zero-copy cold-start path (panacea/serialize.h).
     */
    std::size_t mappedBytes() const { return model_->mappedBytes(); }

    /** @return the underlying shared state (internal bridge). */
    const std::shared_ptr<const serve::ServedModel> &shared() const
    {
        return model_;
    }

  private:
    std::shared_ptr<const serve::ServedModel> model_;
};

/**
 * Compile a model WITHOUT any cache: always runs the full calibration
 * and preparation pipeline. Prefer Runtime::compile(), which
 * deduplicates work through the memory cache and (when configured)
 * the disk tier; this entry point exists for benchmarks and demos
 * that want to measure the uncached cost.
 */
inline CompiledModel
compileModel(const ModelSpec &spec, const CompileOptions &opts = {})
{
    return CompiledModel(std::make_shared<const serve::ServedModel>(
        serve::ServedModel::build(spec, opts)));
}

} // namespace panacea

#endif // PANACEA_PUBLIC_COMPILED_MODEL_H
