/**
 * @file
 * panacea::Session - the submit/await surface of the serving runtime.
 * A Session wraps the layer-stepped micro-batching engine: requests
 * for the same CompiledModel coalesce into one column-concatenated
 * GEMM (up to the batch window, waiting at most the batch deadline),
 * models take round-robin turns, and every request receives its own
 * output columns and execution statistics - bit-identical to a solo
 * run, whatever batch it rode in.
 *
 * Continuous batching (SessionOptions::continuous): the engine
 * advances a running batch one layer at a time and admits newly
 * submitted requests BETWEEN layer steps - a late request catches up
 * through the layers it missed and is spliced into the running
 * cohort instead of waiting for the whole stack, cutting tail
 * latency under open-loop arrivals. InferenceResult::admittedAtLayer
 * records where each request joined, and SessionStats splits latency
 * into queue-wait and execute percentile series plus an
 * admission-layer histogram. Bit-exactness is unchanged in either
 * mode.
 *
 * Sessions come from Runtime::createSession() and must not outlive
 * their Runtime (they serve models through its cache). All methods
 * are thread-safe; a Session may be shared by any number of
 * submitting threads.
 */

#ifndef PANACEA_PUBLIC_SESSION_H
#define PANACEA_PUBLIC_SESSION_H

#include <future>
#include <memory>
#include <utility>

#include "panacea/compiled_model.h"
#include "panacea/generation.h"
#include "serve/engine.h"
#include "serve/request.h"

namespace panacea {

/**
 * Session configuration: batch window, fill deadline, worker count,
 * paused start, continuous (layer-stepped) admission and its
 * in-flight column cap. See serve/engine.h for field semantics;
 * batching parameters change throughput and latency only, never
 * results.
 */
using SessionOptions = serve::EngineOptions;

/**
 * One request's completion record: output columns, solo-equivalent
 * AqsStats, batch size/sequence, admission layer
 * (admittedAtLayer: 0 = batched at stack entry, L = spliced into a
 * running cohort at layer L), and the latency split
 * (queueWaitMs + executeMs = latencyMs).
 */
using InferenceResult = serve::RequestResult;

/**
 * Aggregate session counters (requests, batches, latency/queue-wait/
 * execute percentiles, admission-layer histogram, stats). Percentiles
 * cover completed requests only; see serve/request.h.
 */
using SessionStats = serve::EngineStats;

/** The submit/await handle; see the file header. */
class Session
{
  public:
    Session() = default;

    /**
     * Wrap an engine bound to `cache` (the Runtime's). Application
     * code uses Runtime::createSession() instead.
     */
    Session(const SessionOptions &opts,
            serve::PreparedModelCache *cache)
        : engine_(std::make_unique<serve::InferenceEngine>(opts, cache)),
          gen_(std::make_unique<serve::GenerationScheduler>(*engine_))
    {}

    /** @return whether this session holds an engine. */
    bool valid() const { return engine_ != nullptr; }

    /**
     * Enqueue one request: `input` must be model.inputFeatures() rows
     * by a positive multiple of v columns. Malformed requests are
     * rejected through the returned future (std::invalid_argument on
     * get()) and never disturb other requests.
     */
    std::future<InferenceResult>
    submit(const CompiledModel &model, MatrixF input)
    {
        return engine_->submit(model.shared(), std::move(input));
    }

    /** submit() and wait: the blocking convenience for simple loops. */
    InferenceResult
    infer(const CompiledModel &model, MatrixF input)
    {
        return submit(model, std::move(input)).get();
    }

    /**
     * Start one autoregressive generation (see panacea/generation.h):
     * the prompt prefills in bounded chunks, then maxSteps decode
     * steps chain through the seeded sampler, each re-entering the
     * engine's admission ahead of queued prefill work. The future
     * yields exactly one GenerationResult or one exception.
     */
    std::future<GenerationResult>
    generate(const CompiledModel &model, GenerationRequest req)
    {
        return gen_->generate(model.shared(), std::move(req));
    }

    /** Release the workers of a startPaused session (idempotent). */
    void start() { engine_->start(); }

    /**
     * Block until every submitted request AND every started
     * generation completed (implies start). Generations drain first:
     * they stop feeding the engine once terminal, so the engine drain
     * below cannot race their step submissions.
     */
    void drain()
    {
        gen_->drain();
        engine_->drain();
    }

    /** @return aggregate counters (deterministic fields documented). */
    SessionStats stats() const { return engine_->stats(); }

    /** @return generation counters: tokens/s, TTFT and inter-token
     *  percentiles, paged-state bytes (see GenerationStats). */
    GenerationStats generationStats() const { return gen_->stats(); }

    /** @return the resolved options (window/deadline/workers). */
    const SessionOptions &options() const { return engine_->options(); }

  private:
    std::unique_ptr<serve::InferenceEngine> engine_;
    /** Declared after engine_: destroyed FIRST, so teardown drains
     *  live generations through a still-alive engine. */
    std::unique_ptr<serve::GenerationScheduler> gen_;
};

} // namespace panacea

#endif // PANACEA_PUBLIC_SESSION_H
