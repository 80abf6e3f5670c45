#include "serve/served_model.h"

#include <bit>
#include <sstream>

#include "models/synth_data.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/walltime.h"

namespace panacea {
namespace serve {

namespace {

/**
 * FNV-1a fingerprint of everything in a ModelSpec that changes the
 * prepared bytes: a custom spec reusing another spec's NAME must not
 * collide with it in the cache.
 */
std::uint64_t
specFingerprint(const ModelSpec &spec)
{
    std::uint64_t h = fnv1a64Offset;
    const auto mix = [&h](std::uint64_t v) { h = fnv1a64Word(h, v); };
    mix(spec.seqLen);
    mix(spec.layers.size());
    for (const LayerSpec &l : spec.layers) {
        mix(l.m);
        mix(l.kDim);
        mix(l.nOverride);
        mix(static_cast<std::uint64_t>(l.dist));
        mix(std::bit_cast<std::uint64_t>(l.spread));
        mix(std::bit_cast<std::uint64_t>(l.outlierRate));
        mix(l.repeat);
        mix(static_cast<std::uint64_t>(l.weightBits));
        mix(static_cast<std::uint64_t>(l.actBits));
        mix(std::bit_cast<std::uint64_t>(l.weightOutlierRate));
    }
    return h;
}

} // namespace

std::string
serveModelKey(const ModelSpec &spec, const ServeModelOptions &opts)
{
    std::ostringstream key;
    key << spec.name << "#" << std::hex << specFingerprint(spec)
        << std::dec << "|v=" << opts.v << "|rle=" << opts.rleIndexBits
        << "|skip=" << toString(opts.actSkip)
        << "|zpm=" << (opts.enableZpm ? 1 : 0)
        << "|dbs=" << (opts.enableDbs ? 1 : 0) << ":" << opts.dbsTargetMass
        << "|wbits=" << opts.weightBitsOverride << "|seed=" << opts.seed
        << "|calib=" << opts.calibTokens << "|layers=" << opts.maxLayers;
    return key.str();
}

ServedModel
ServedModel::build(const ModelSpec &spec, const ServeModelOptions &opts)
{
    fatal_if(spec.layers.empty(), "cannot serve a model without layers");
    const auto t0 = nowTick();

    ServedModel model;
    model.spec_ = spec;
    model.opts_ = opts;

    std::size_t count = spec.layers.size();
    if (opts.maxLayers != 0 && opts.maxLayers < count)
        count = opts.maxLayers;
    model.layers_.reserve(count);

    for (std::size_t i = 0; i < count; ++i) {
        const LayerSpec &ls = spec.layers[i];
        // Per-layer RNG stream: layer i's tensors never depend on how
        // many layers precede it, so trimmed (maxLayers) and full
        // builds agree on the shared prefix.
        Rng rng(opts.seed + 0x9e3779b97f4a7c15ull * (i + 1));

        AqsPipelineOptions pipe;
        pipe.weightBits = opts.weightBitsOverride ? opts.weightBitsOverride
                                                  : ls.weightBits;
        pipe.actBits = ls.actBits;
        pipe.enableZpm = opts.enableZpm;
        pipe.enableDbs = opts.enableDbs;
        pipe.dbsTargetMass = opts.dbsTargetMass;
        pipe.gemm.v = opts.v;
        pipe.gemm.rleIndexBits = opts.rleIndexBits;
        pipe.gemm.actSkip = opts.actSkip;

        MatrixF w = genWeights(rng, ls.m, ls.kDim, ls.weightOutlierRate);
        const MatrixF calib[2] = {
            genLayerActivations(rng, ls, opts.calibTokens),
            genLayerActivations(rng, ls, opts.calibTokens),
        };
        model.layers_.push_back(AqsLinearLayer::calibrate(
            w, /*bias=*/{}, std::span<const MatrixF>(calib, 2), pipe));
    }

    model.finalizeDerivedState();
    model.buildMs_ = msSince(t0);
    return model;
}

ServedModel
ServedModel::restore(const ModelSpec &spec, const ServeModelOptions &opts,
                     std::vector<AqsLinearLayer> layers, double build_ms,
                     std::shared_ptr<const void> payload_owner,
                     std::size_t mapped_bytes)
{
    fatal_if(layers.empty(), "cannot restore a model without layers");
    std::size_t count = spec.layers.size();
    if (opts.maxLayers != 0 && opts.maxLayers < count)
        count = opts.maxLayers;
    fatal_if(layers.size() != count, "restored layer count ",
             layers.size(), " != served layer count ", count, " of ",
             spec.name);

    ServedModel model;
    model.spec_ = spec;
    model.opts_ = opts;
    model.layers_ = std::move(layers);
    model.payloadOwner_ = std::move(payload_owner);
    model.mappedBytes_ = mapped_bytes;
    model.finalizeDerivedState();
    model.buildMs_ = build_ms;
    return model;
}

void
ServedModel::finalizeDerivedState()
{
    key_ = serveModelKey(spec_, opts_);
    macsPerColumn_ = 0;
    for (const AqsLinearLayer &layer : layers_)
        macsPerColumn_ +=
            static_cast<std::uint64_t>(layer.weights().sliced.rows()) *
            layer.weights().sliced.cols();
    // Slots only; each layer's cache materializes on first use (see
    // countCache()) so restore from a mapped file stays map-bound.
    countCaches_ = std::vector<WeightCountingCache>(layers_.size());
    countCacheOnce_ =
        std::make_unique<std::once_flag[]>(layers_.size());
    // The inter-layer feature-adaptation plan: boundary i's target row
    // count (= layer i+1's input width K). Computed once here so the
    // per-step path never re-derives it (see forwardPreparedStep).
    stepFeatures_.clear();
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
        stepFeatures_.push_back(layers_[i + 1].weights().sliced.cols());
}

const WeightCountingCache &
ServedModel::countCache(std::size_t i) const
{
    std::call_once(countCacheOnce_[i], [this, i] {
        countCaches_[i] =
            buildWeightCountingCache(layers_[i].weights(), opts_.v,
                                     opts_.rleIndexBits);
    });
    return countCaches_[i];
}

std::size_t
ServedModel::inputFeatures() const
{
    return layers_.front().weights().sliced.cols();
}

std::size_t
ServedModel::outputFeatures() const
{
    return layers_.back().weights().sliced.rows();
}

MatrixF
ServedModel::adaptFeatures(MatrixF y, std::size_t features)
{
    if (y.rows() == features)
        return y;
    // Cyclic row tiling (or truncation when features < y.rows()),
    // copied a whole tile at a time: rows are contiguous in the
    // row-major storage, so each tile is one contiguous block of
    // min(y.rows(), features - r) rows. Byte-identical to the
    // per-row `src = y.row(r % y.rows())` formulation this replaces.
    MatrixF out(features, y.cols());
    const std::span<const float> src = y.data();
    const std::span<float> dst = out.data();
    const std::size_t row_elems = y.cols();
    std::size_t r = 0;
    while (r < features) {
        const std::size_t take = std::min(y.rows(), features - r);
        std::copy_n(src.begin(),
                    static_cast<std::ptrdiff_t>(take * row_elems),
                    dst.begin() +
                        static_cast<std::ptrdiff_t>(r * row_elems));
        r += take;
    }
    return out;
}

ActivationOperand
ServedModel::prepareInput(const MatrixF &input) const
{
    const AqsLinearLayer &first = layers_.front();
    return first.prepareInput(first.quantizeInput(input));
}

ActivationOperand
ServedModel::prepareStepInput(std::size_t layer_index,
                              const MatrixF &x) const
{
    fatal_if(layer_index >= layers_.size(), "prepareStepInput layer ",
             layer_index, " out of ", layers_.size());
    const AqsLinearLayer &layer = layers_[layer_index];
    return layer.prepareInput(layer.quantizeInput(x));
}

ServedModel::StepResult
ServedModel::forwardPreparedStep(std::size_t layer_index,
                                 const ActivationOperand &op,
                                 std::span<const std::size_t> group_offsets,
                                 std::mutex *gemm_mutex) const
{
    fatal_if(layer_index >= layers_.size(), "forwardPreparedStep layer ",
             layer_index, " out of ", layers_.size());
    fatal_if(group_offsets.size() < 2,
             "forwardPreparedStep needs at least one request range");
    const std::size_t uv = static_cast<std::size_t>(opts_.v);
    fatal_if(group_offsets.back() * uv != op.sliced.cols(),
             "group offsets (", group_offsets.back(),
             " groups) do not cover the operand (", op.sliced.cols(),
             " columns)");
    const AqsLinearLayer &layer = layers_[layer_index];

    StepResult res;
    // Per-request statistics out of the one batched call: counting
    // depends only on the masks, which are column-blocked, so
    // each range's record equals a solo run's. The weight-side mask
    // scan comes from the per-layer cache, materialized once on first
    // use (countCache()).
    res.perRequest = aqsCountStatsBatch(layer.weights(), op,
                                        layer.config(),
                                        countCache(layer_index),
                                        group_offsets);

    const auto tg = nowTick();
    MatrixI64 acc;
    {
        std::unique_lock<std::mutex> gemm_lock;
        if (gemm_mutex != nullptr)
            gemm_lock = std::unique_lock<std::mutex>(*gemm_mutex);
        acc = layer.forwardPrepared(op, nullptr);
    }
    res.gemmMs = msSince(tg);

    MatrixF y = layer.dequantizeOutput(acc);
    if (layer_index + 1 < layers_.size()) {
        // Adapt to the next layer's input width via the boundary plan
        // cached at build/restore time (finalizeDerivedState) - decode
        // steps hit this once per layer per step, so re-deriving the
        // target width (and the function call for identity boundaries)
        // is pure waste. The width is a property of the layer stack
        // alone - the same for prefill and decode columns - hence one
        // plan per model, not per phase.
        const std::size_t want = stepFeatures_[layer_index];
        res.next = y.rows() == want ? std::move(y)
                                    : adaptFeatures(std::move(y), want);
    } else {
        res.next = std::move(y);
    }
    return res;
}

ServedModel::BatchResult
ServedModel::runPrepared(const ActivationOperand &input_op,
                         std::span<const std::size_t> group_offsets,
                         std::mutex *gemm_mutex) const
{
    fatal_if(group_offsets.size() < 2,
             "runPrepared needs at least one request range");
    const std::size_t requests = group_offsets.size() - 1;

    BatchResult res;
    res.perRequest.assign(requests, AqsStats{});

    const ActivationOperand *cur_op = &input_op;
    ActivationOperand local_op;
    MatrixF cur;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        if (li > 0) {
            const auto tp = nowTick();
            local_op = prepareStepInput(li, cur);
            cur_op = &local_op;
            res.prepMs += msSince(tp);
        }
        StepResult step =
            forwardPreparedStep(li, *cur_op, group_offsets, gemm_mutex);
        for (std::size_t r = 0; r < requests; ++r)
            res.perRequest[r] += step.perRequest[r];
        res.gemmMs += step.gemmMs;
        if (li + 1 < layers_.size())
            cur = std::move(step.next);
        else
            res.output = std::move(step.next);
    }
    return res;
}

} // namespace serve
} // namespace panacea
