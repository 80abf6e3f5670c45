/**
 * @file
 * A model loaded for serving: every unique GEMM layer of a ModelSpec
 * calibrated through the full Panacea PTQ pipeline exactly once, with
 * its weight operand SBR-sliced, RLE-encoded and HO-compressed at load
 * time. This is the paper's §III-B split mapped onto a runtime:
 * weights are prepared offline and reused by every request; only
 * activation quantization/slicing is per-request work.
 *
 * A ServedModel is immutable after build(), so one instance is shared
 * concurrently by every request, worker and engine (usually through
 * PreparedModelCache in serve/operand_cache.h).
 *
 * Stack semantics: requests flow through the model's unique layers in
 * order. Between consecutive GEMMs the float output is adapted to the
 * next layer's input width by truncating or cyclically tiling feature
 * rows (adaptFeatures()) - a deterministic, column-independent stand-in
 * for the attention/nonlinearity plumbing this repo does not model.
 * Every per-element/per-column step preserves aqsGemm()'s column-slice
 * determinism, which is what makes batching bit-exact (see
 * runPrepared()).
 */

#ifndef PANACEA_SERVE_SERVED_MODEL_H
#define PANACEA_SERVE_SERVED_MODEL_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/aqs_layer.h"
#include "models/layer.h"

namespace panacea {
namespace serve {

/** Build-time options of a served model (fixed per cache entry). */
struct ServeModelOptions
{
    int v = 4;                   ///< slice-vector length
    int rleIndexBits = 4;
    ActSkipMode actSkip = ActSkipMode::RValued;
    bool enableZpm = true;
    bool enableDbs = true;
    double dbsTargetMass = 0.90;
    int weightBitsOverride = 0;  ///< 0 = per-layer spec widths
    std::uint64_t seed = 0x5eed; ///< synthetic tensor seed
    std::size_t calibTokens = 64; ///< tokens per calibration batch
    std::size_t maxLayers = 0;   ///< serve only the first L layers (0 = all)
};

/** @return the cache key of (model, options); see PreparedModelCache. */
std::string serveModelKey(const ModelSpec &spec,
                          const ServeModelOptions &opts);

/**
 * One model prepared for serving. Thread-safe for concurrent reads
 * (all methods are const after build()).
 */
class ServedModel
{
  public:
    /**
     * Calibrate and prepare every served layer: synthetic weights and
     * calibration batches per the layer's distribution family
     * (deterministic in opts.seed), the full PTQ pipeline of
     * AqsLinearLayer::calibrate(), and the prepared WeightOperand kept
     * for the model's lifetime.
     */
    static ServedModel build(const ModelSpec &spec,
                             const ServeModelOptions &opts);

    /**
     * Reassemble a served model from already-prepared layers WITHOUT
     * any calibration, slicing, RLE or HO work: the deserialization
     * entry point of the compiled-model format
     * (serve/model_serialize.h). The layers must be the ones a
     * build(spec, opts) produced (restored via AqsLinearLayer::
     * restore()); the key is re-derived and the per-layer counting
     * caches materialize lazily on first use, `build_ms` records what
     * the ORIGINAL build spent so cache accounting (buildMsSaved)
     * stays meaningful across processes.
     *
     * Zero-copy loads (model_serialize.h) pass
     * `payload_owner` - the object whose memory the layers' operand
     * views point into (a MappedFile or an Arena holding the file
     * image); the model keeps it alive for its own lifetime.
     * `mapped_bytes` > 0 records that the payloads live in a shared
     * read-only file mapping of that many bytes (0 for owning loads).
     */
    static ServedModel restore(const ModelSpec &spec,
                               const ServeModelOptions &opts,
                               std::vector<AqsLinearLayer> layers,
                               double build_ms,
                               std::shared_ptr<const void> payload_owner =
                                   nullptr,
                               std::size_t mapped_bytes = 0);

    /** Result of one batched pass through the layer stack. */
    struct BatchResult
    {
        MatrixF output;  ///< final layer output, one column per token
        /**
         * Per-request statistics, one per group range: bit-equal to
         * the stats a solo run of that request would record (counted
         * via aqsCountStatsBatch(), never affected by what else rode
         * in the batch).
         */
        std::vector<AqsStats> perRequest;
        double prepMs = 0.0; ///< intermediate-layer operand prep time
        double gemmMs = 0.0; ///< GEMM time across the stack
    };

    /** Result of one layer step over a set of in-flight column groups. */
    struct StepResult
    {
        /**
         * When the step executed the LAST layer: the final float
         * output. Otherwise: the float activations already adapted
         * (adaptFeatures()) to the NEXT layer's input width, ready for
         * prepareStepInput(layer_index + 1, ...).
         */
        MatrixF next;
        /**
         * This step's statistics, one record per group range:
         * bit-equal to what a solo run of that range would record at
         * this layer (aqsCountStatsBatch() over the per-layer counting
         * cache).
         */
        std::vector<AqsStats> perRequest;
        double gemmMs = 0.0; ///< GEMM wall time of this step
    };

    /**
     * Execute exactly ONE layer on a prepared (possibly spliced)
     * operand: the unit of execution of the layer-stepped continuous
     * scheduler (serve/engine.h). `op` must be layer
     * `layer_index`'s prepared input - a single request's, or any
     * column concatenation of prepared operands
     * (concatActivationOperands()) - and `group_offsets` (cumulative
     * column groups, R+1 entries covering the operand) names each
     * request's column range.
     *
     * When `gemm_mutex` is non-null it is held around the GEMM only;
     * per-request counting and dequantize/adapt run unlocked.
     *
     * Determinism: every stage is column-blocked, so request r's slice
     * of `next` and its stats record are bit-identical whatever other
     * column groups ride in the operand - the invariant that makes
     * mid-stack admission (splice) bit-exact
     * (tests/test_serve_continuous.cpp).
     */
    StepResult forwardPreparedStep(std::size_t layer_index,
                                   const ActivationOperand &op,
                                   std::span<const std::size_t> group_offsets,
                                   std::mutex *gemm_mutex = nullptr) const;

    /**
     * Quantize + slice float activations as layer `layer_index`'s
     * input operand (layer 0: same as prepareInput()). Column-blocked,
     * so preparing a column concatenation equals concatenating
     * per-request preparations.
     */
    ActivationOperand prepareStepInput(std::size_t layer_index,
                                       const MatrixF &x) const;

    /**
     * Run one batch through the stack. `input_op` is the prepared
     * layer-0 activation operand (a single request's, or the
     * concatenation of several via concatActivationOperands());
     * `group_offsets` (R+1 entries, cumulative column groups) names
     * each request's column range.
     *
     * When `gemm_mutex` is non-null it is held around each layer's
     * GEMM only - intermediate-layer quantize/slice prep and the
     * per-request counting run unlocked (they touch batch-local state
     * exclusively), so a concurrent caller's prep genuinely overlaps
     * this batch's GEMMs.
     *
     * Determinism contract (tests/test_serve_engine.cpp): request r's
     * output columns and statistics are bit-identical for EVERY batch
     * composition, because every stage is column-blocked - the GEMMs
     * by aqsGemm()'s column-slice determinism, dequantize/adapt/
     * quantize/slice per element or per column.
     */
    BatchResult runPrepared(const ActivationOperand &input_op,
                            std::span<const std::size_t> group_offsets,
                            std::mutex *gemm_mutex = nullptr) const;

    /** Quantize + slice a float input for layer 0 (per-request prep). */
    ActivationOperand prepareInput(const MatrixF &input) const;

    /**
     * Adapt a float activation to `features` rows: identity when it
     * matches, otherwise truncate or cyclically tile feature rows.
     * Column-independent, so it preserves batching determinism.
     */
    static MatrixF adaptFeatures(MatrixF y, std::size_t features);

    /** @return the cache key (model name + options fingerprint). */
    const std::string &key() const { return key_; }
    /** @return the source model spec. */
    const ModelSpec &spec() const { return spec_; }
    /** @return the build options. */
    const ServeModelOptions &options() const { return opts_; }
    /** @return served layer count (spec layers, capped by maxLayers). */
    std::size_t layerCount() const { return layers_.size(); }
    /** @return one served layer. */
    const AqsLinearLayer &layer(std::size_t i) const { return layers_[i]; }
    /** @return input features K of the first layer. */
    std::size_t inputFeatures() const;
    /** @return output features M of the last layer. */
    std::size_t outputFeatures() const;
    /** @return dense-equivalent MACs one activation column costs. */
    std::uint64_t macsPerColumn() const { return macsPerColumn_; }
    /** @return wall time build() spent preparing this model. */
    double buildMs() const { return buildMs_; }
    /**
     * @return bytes of the read-only file mapping the operand views
     * point into, 0 when the model owns (or arena-copied) its
     * payloads. Non-zero means the weight bytes are shared with every
     * other process mapping the same .pncm.
     */
    std::size_t mappedBytes() const { return mappedBytes_; }

  private:
    ServedModel() = default;

    /** Shared build()/restore() tail: key, MACs, lazy-cache slots. */
    void finalizeDerivedState();

    /**
     * Layer `i`'s weight-side counting cache - the O(M/v * K) hoMask
     * scan aqsCountStats needs - materialized on FIRST use
     * (std::call_once, safe under concurrent readers) instead of at
     * build/restore time: a zero-copy load must not eagerly walk every
     * layer's mask, or map-time degrades back into decode-time. Stats
     * stay bit-equal to the scanning path (see WeightCountingCache).
     */
    const WeightCountingCache &countCache(std::size_t i) const;

    ModelSpec spec_;
    ServeModelOptions opts_;
    std::string key_;
    std::vector<AqsLinearLayer> layers_;
    /** Lazily-built per-layer caches; see countCache(). */
    mutable std::vector<WeightCountingCache> countCaches_;
    /** One flag per layer (array: once_flag is immovable). */
    mutable std::unique_ptr<std::once_flag[]> countCacheOnce_;
    /**
     * Cached feature-adaptation plan of each inter-layer boundary:
     * stepFeatures_[i] is the row count layer i's float output must be
     * adapted to before it becomes layer i+1's input (= layer i+1's
     * K). One entry per boundary (layerCount()-1), filled in
     * finalizeDerivedState() so forwardPreparedStep() - the once-per-
     * layer-per-decode-step hot path - never re-derives the width or
     * calls adaptFeatures() at an identity boundary. Phase-invariant:
     * the adapted shape depends only on the layer stack, never on
     * whether the columns are prefill or decode work.
     */
    std::vector<std::size_t> stepFeatures_;
    /** Keeps the mapped file / arena behind operand views alive. */
    std::shared_ptr<const void> payloadOwner_;
    std::size_t mappedBytes_ = 0;
    std::uint64_t macsPerColumn_ = 0;
    double buildMs_ = 0.0;
};

} // namespace serve
} // namespace panacea

#endif // PANACEA_SERVE_SERVED_MODEL_H
