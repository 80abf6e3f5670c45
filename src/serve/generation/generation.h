/**
 * @file
 * The autoregressive generation subsystem: multi-step decode as a
 * first-class scheduling citizen of the serving stack, instead of a
 * hand-rolled loop of one-shot submit() calls.
 *
 * A GenerationRequest is a prompt (inputFeatures x promptCols float
 * activations), a step budget, and a seeded sampler. The
 * GenerationScheduler turns it into a chain of engine submissions that
 * re-enter the continuous-batching engine's admission between layer
 * steps (serve/engine.h):
 *
 *   prompt ──▶ PREFILL: the prompt split into bounded chunks of at
 *              most prefillChunkGroups column groups, submitted
 *              SEQUENTIALLY (chunk c+1 after chunk c completes) with
 *              RequestPhase::Prefill - so a long prompt occupies the
 *              engine only one bounded cohort at a time and can never
 *              stall a running decode stream for more than one chunk.
 *                  ▼
 *           DECODE: step n samples the next v-wide input from step
 *              n-1's output (TokenSampler - deterministic in the
 *              request seed), preps its layer-0 operand ON THE PUMP
 *              THREAD (off the engine's cohort critical path), and
 *              submits it with RequestPhase::Decode + the prepared
 *              operand attached (SubmitExtras) - the engine's urgent
 *              queue admits it ahead of any queued prefill, and
 *              never re-preps what the scheduler already prepared.
 *                  ▼
 *           per-step callback (streaming) ─▶ GenerationResult future
 *
 * Scheduling changes WHEN steps execute, never WHAT they compute:
 * outputs are byte-identical across prefill chunk bounds, ISA levels,
 * worker counts and admission layers, because prefill chunking rides
 * the engine's column-blocked bit-exactness and the sampler chain
 * depends only on output bytes (tests/test_generation.cpp).
 *
 * Paged decode state: each live generation owns an Arena
 * (util/arena.h); the prefill output and every step's output land in
 * arena pages, so the per-step state of a generation is a bump
 * allocation, not a fresh heap graph per step - and the sampler reads
 * step N's page to prep step N+1's single new column group while the
 * engine is busy with other cohorts. Pages live exactly as long as
 * the generation; the terminal GenerationResult owns plain copies.
 *
 * Threading: one pump thread per scheduler, driven by the engine's
 * SubmitExtras::onReady completion hooks (event-driven, no polling).
 * Step callbacks run on the pump thread with no scheduler lock held;
 * they may call generate() re-entrantly but must not block long (they
 * gate the NEXT step's submission of their own generation only).
 */

#ifndef PANACEA_SERVE_GENERATION_GENERATION_H
#define PANACEA_SERVE_GENERATION_GENERATION_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "util/arena.h"
#include "util/matrix.h"
#include "util/random.h"

namespace panacea {
namespace serve {

class ReplicaRouter;

/** Which half of a generation a completed engine step belonged to. */
enum class GenerationPhase : std::uint8_t
{
    Prefill = 0, ///< a bounded prompt chunk
    Decode = 1,  ///< one sampled v-wide step
};

/** @return "prefill" / "decode". */
const char *toString(GenerationPhase phase);

/** Prefill chunk bound when GenerationRequest::prefillChunkGroups
 *  is 0: at most this many column groups per prefill cohort. */
inline constexpr std::size_t kDefaultPrefillChunkGroups = 8;

/**
 * The deterministic next-step sampler: a stand-in for a token head +
 * embedding lookup that keeps the decode chain's bytes reproducible.
 * Step n's input is built from the LAST v output columns of step n-1
 * (or of the prefill): row r of the new input reads the tiled output
 * row (r % rows) and perturbs it with a seeded gaussian draw -
 *
 *     x(r, c) = 0.5 * prev(r % rows, lastV + c) + N(0.2, 1.0)
 *
 * drawn in row-major order, one draw per element, from an Rng seeded
 * at construction. The chain is therefore a pure function of
 * (seed, prompt bytes): any two loops that feed it byte-identical
 * outputs produce byte-identical inputs - the decode-vs-manual-loop
 * identity contract rides on this. Not thread-safe; one sampler per
 * generation.
 */
class TokenSampler
{
  public:
    explicit TokenSampler(std::uint64_t seed) : rng_(seed) {}

    /**
     * Sample the next step's input from the last `v` columns of
     * `prev` (rows x cols, row-major; cols >= v).
     * @return a `features` x `v` float input for layer 0.
     */
    MatrixF next(const float *prev, std::size_t rows, std::size_t cols,
                 std::size_t features, std::size_t v);

    /** Convenience overload over an owned/viewed matrix. */
    MatrixF next(const MatrixF &prev, std::size_t features,
                 std::size_t v);

  private:
    Rng rng_;
};

/**
 * One completed step, streamed to GenerationRequest::onStep. `output`
 * points into the generation's transient step state (an arena page
 * for decode steps, the engine's chunk output for prefill) and is
 * valid only during the callback; copy what you keep.
 */
struct GenerationStepView
{
    std::uint64_t generationId = 0;
    GenerationPhase phase = GenerationPhase::Prefill;
    /** Chunk index (prefill) or step index (decode), 0-based. */
    std::size_t index = 0;
    /** Total decode steps this generation will run. */
    std::size_t stepsTotal = 0;
    const float *output = nullptr; ///< row-major rows x cols
    std::size_t rows = 0;
    std::size_t cols = 0;
    /** Wall time since the generation started. */
    double sinceStartMs = 0.0;
};

/** One autoregressive generation job. */
struct GenerationRequest
{
    /** inputFeatures x (positive multiple of v) float activations. */
    MatrixF prompt;
    /** Decode steps to run after prefill (>= 1); each emits v columns. */
    std::size_t maxSteps = 8;
    /** TokenSampler seed: the decode chain is a pure function of
     *  (samplerSeed, prompt bytes). */
    std::uint64_t samplerSeed = 0xdec0de;
    /** Prefill chunk bound in column groups; 0 picks
     *  kDefaultPrefillChunkGroups. */
    std::size_t prefillChunkGroups = 0;
    /** Streaming per-step hook (may be null); see GenerationStepView.
     *  Runs on the scheduler's pump thread, no lock held. */
    std::function<void(const GenerationStepView &)> onStep;
};

/** Scheduling record of one engine step of a generation. */
struct GenerationStepMeta
{
    GenerationPhase phase = GenerationPhase::Prefill;
    /** Chunk / step index within its phase, 0-based. */
    std::size_t index = 0;
    std::size_t columns = 0;         ///< activation columns submitted
    std::uint64_t engineId = 0;      ///< engine submission id
    std::uint64_t batchSeq = 0;      ///< cohort sequence number
    std::size_t admittedAtLayer = 0; ///< continuous-admission splice layer
    std::size_t batchSize = 0;       ///< cohort size it rode in
    std::uint64_t modelVersion = 0;  ///< fleet path only (0 otherwise)
    double latencyMs = 0.0;          ///< engine submit-to-complete
};

/** Terminal result of one generation. */
struct GenerationResult
{
    std::uint64_t id = 0;
    /** Final-layer output of the prompt (outputFeatures x promptCols),
     *  byte-identical to a single whole-prompt inference. */
    MatrixF prefillOutput;
    /** Decode outputs, step-major: columns [n*v, (n+1)*v) are step
     *  n's output (outputFeatures x steps*v). */
    MatrixF output;
    std::size_t steps = 0; ///< decode steps executed (== maxSteps)
    /** Exact fold of every chunk's and step's per-request AqsStats. */
    AqsStats stats;
    double prefillMs = 0.0; ///< start to last prefill chunk completion
    double ttftMs = 0.0;    ///< start to FIRST decode step completion
    double totalMs = 0.0;   ///< start to last decode step completion
    /** Gaps between consecutive decode-step completions (steps-1). */
    std::vector<float> interTokenMs;
    /** Per engine-step scheduling records, in completion order
     *  (prefill chunks, then decode steps). */
    std::vector<GenerationStepMeta> stepMeta;
    /** Arena bytes the generation's paged state peaked at. */
    std::size_t arenaBytes = 0;
};

/** Aggregate scheduler counters; see GenerationScheduler::stats(). */
struct GenerationStats
{
    std::uint64_t generations = 0;   ///< completed generations
    std::uint64_t failed = 0;        ///< terminated by an error
    std::uint64_t prefillChunks = 0; ///< completed prefill cohorts
    std::uint64_t decodeSteps = 0;   ///< completed decode cohorts
    std::uint64_t promptColumns = 0; ///< prefill columns served
    std::uint64_t decodeColumns = 0; ///< decode columns served
    /**
     * decodeColumns / (last decode completion - first generation
     * start): the sustained decode rate across everything this
     * scheduler served. 0 until the first decode step completes.
     */
    double tokensPerSecond = 0.0;
    /** Percentiles over sliding windows (most recent 8192) of
     *  completed generations' TTFT and inter-token gaps. */
    double p50TtftMs = 0.0;
    double p99TtftMs = 0.0;
    double p50InterTokenMs = 0.0;
    double p99InterTokenMs = 0.0;
    /** Arena bytes currently held by live generations. */
    std::size_t arenaBytesLive = 0;
    /** Arena bytes of every generation ever retired. */
    std::uint64_t arenaBytesRetired = 0;
};

/**
 * The generation scheduler: turns GenerationRequests into phase-tagged
 * engine submission chains (see the file header). One pump thread; all
 * public methods are thread-safe. Must be destroyed BEFORE the engine
 * it drives (destruction drains live generations through the engine).
 */
class GenerationScheduler
{
  public:
    /** @param engine the engine submissions go to (not owned; must
     *         outlive the scheduler). */
    explicit GenerationScheduler(InferenceEngine &engine);

    /** Runs every live generation to its terminal, then joins. */
    ~GenerationScheduler();

    GenerationScheduler(const GenerationScheduler &) = delete;
    GenerationScheduler &operator=(const GenerationScheduler &) = delete;

    /**
     * Start one generation. Always yields exactly one terminal through
     * the future: a GenerationResult, or an exception
     * (std::invalid_argument for a malformed request - null model,
     * prompt shape, zero steps; std::runtime_error when racing
     * drain()/teardown, or when a step submission was rejected
     * mid-generation). Never blocks on engine progress.
     */
    std::future<GenerationResult>
    generate(std::shared_ptr<const ServedModel> model,
             GenerationRequest req);

    /**
     * Block until every generation started BEFORE the call reached its
     * terminal. Concurrent generate() calls are rejected through their
     * futures while a drain is in progress (std::runtime_error) - the
     * engine drain()'s reject-or-complete contract, one level up.
     */
    void drain();

    /** @return aggregate counters (see GenerationStats). */
    GenerationStats stats() const;

  private:
    struct Active;

    void pumpLoop();
    /** Submit one engine step of `a` (pump thread, no lock held). */
    void submitStep(Active &a, MatrixF input, RequestPhase phase);
    void handleEvent(Active &a);
    void handlePrefillChunk(Active &a, RequestResult &&rr);
    void handleDecodeStep(Active &a, RequestResult &&rr);
    /** Assemble + fulfil the terminal result (pump thread). */
    void finish(Active &a);
    void fail(Active &a, std::exception_ptr exc);
    /** Retire `a`: stats, erase from actives, wake drainers. */
    void retire(std::uint64_t id, bool failed);

    InferenceEngine &engine_;

    mutable std::mutex mutex_;
    std::condition_variable pumpCv_;  ///< ready-queue activity
    std::condition_variable drainCv_; ///< retirement progress
    std::map<std::uint64_t, std::unique_ptr<Active>> active_;
    /** Generation ids with a consumable event (a completed engine
     *  step, or their own start), in arrival order. */
    std::deque<std::uint64_t> ready_;
    std::uint64_t nextId_ = 0;
    int draining_ = 0;
    bool stopping_ = false;

    mutable std::mutex statsMutex_;
    std::uint64_t generations_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t prefillChunks_ = 0;
    std::uint64_t decodeSteps_ = 0;
    std::uint64_t promptColumns_ = 0;
    std::uint64_t decodeColumns_ = 0;
    std::uint64_t arenaRetired_ = 0;
    std::size_t arenaLive_ = 0;
    bool haveFirstStart_ = false;
    std::chrono::steady_clock::time_point firstStartTp_;
    std::chrono::steady_clock::time_point lastDecodeTp_;
    std::vector<float> ttftRing_;
    std::vector<float> interTokenRing_;
    std::size_t ttftNext_ = 0;
    std::size_t interTokenNext_ = 0;

    std::thread pump_;
};

/**
 * Run one generation over the fleet tier, synchronously: the same
 * chunk/sampler chain as the scheduler, with each step routed by
 * ReplicaRouter::submit() under its phase tag, so outputs are
 * byte-identical to Session-side generation at any replica count
 * (whole-request dispatch onto bit-exact engines). A Rejected step
 * (overload shed, quarantine, unknown model) aborts the generation
 * with std::runtime_error. GenerationStepMeta::modelVersion records
 * each step's serving version across hot-reloads.
 */
GenerationResult generateOverRouter(ReplicaRouter &router,
                                    const std::string &model_name,
                                    GenerationRequest req);

} // namespace serve
} // namespace panacea

#endif // PANACEA_SERVE_GENERATION_GENERATION_H
