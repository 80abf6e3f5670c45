/**
 * @file
 * The inference engine: a submission queue feeding a LAYER-STEPPED
 * execution core on top of the prepared-operand cache and the AQS-GEMM
 * kernels. The unit of execution is one layer step over a cohort of
 * in-flight column groups, not a whole-stack batch - which is what
 * makes continuous (mid-stack) admission possible.
 *
 * Dataflow (one worker iteration):
 *
 *   submit() ──▶ per-model queues ──▶ [front model of the round-robin
 *                (FIFO within a model)  ring: collect ≤ window, wait
 *                                       ≤ deadline]  = cohort
 *                                        ▼
 *                   per-request quantize + slice (layer 0)
 *                   concatActivationOperands() ─ column concat
 *                                        ▼
 *              ┌──▶ ServedModel::forwardPreparedStep(L)  ──┐
 *              │        one layer, GEMM serialized         │
 *              │        across workers                     │
 *              │                                           ▼
 *              │    [continuous] admit queued requests: catch-up
 *              │    layers 0..L via their own step loop, then
 *              │    splice with concatActivationOperands()
 *              └───────────── next layer L+1 ──────────────┘
 *                                        ▼
 *                   split output columns per request, fulfil futures
 *
 * Micro-batching: a worker takes the model at the FRONT of the
 * round-robin ring, coalesces up to batchWindow of ITS pending
 * requests (FIFO within the model), waiting at most batchDeadlineMs
 * for the window to fill. The cohort executes as ONE activation
 * operand whose columns are the requests' columns concatenated -
 * amortizing the per-call weight-side work (band packing, skip-list
 * builds, pool dispatch) that dominates small-N calls - and results
 * are split back per request. Batching is bit-exact: aqsGemm() is
 * column-slice deterministic and every inter-layer step is
 * column-blocked, so request r's output and stats never depend on
 * what else rode along.
 *
 * Continuous admission (EngineOptions::continuous): between layer
 * steps, the worker revisits the model's queue. A request that
 * arrived AFTER the cohort left layer 0 no longer waits for the whole
 * stack to finish: it is caught up through the layers it missed
 * (prepared at layer 0, advanced by the same step loop as its own
 * mini-cohort) and spliced into the running cohort's next operand
 * with concatActivationOperands(). Admission changes WHEN a request
 * executes, never WHAT it computes: catch-up and cohort steps are the
 * same column-blocked math, so outputs and AqsStats stay bit-equal to
 * a solo run for any arrival timing (tests/test_serve_continuous.cpp).
 * RequestResult::admittedAtLayer records where each request joined;
 * EngineStats keeps the admission histogram and splits latency into
 * queue-wait and execute percentiles. With continuous=false the
 * engine admits at layer 0 only and today's pinned round-robin
 * batchSeq schedules are preserved exactly.
 *
 * Phase-aware service (SubmitExtras::phase): each ring slot keeps two
 * queues - the FIFO queue (Bulk/Prefill submissions, the pre-existing
 * order) and an URGENT queue (Decode submissions). Cohort formation
 * and continuous admission both drain urgent before FIFO, so a v-wide
 * decode step of an autoregressive generation overtakes long prefill
 * prompts queued ahead of it instead of paying their full stack
 * latency. Within each queue order stays FIFO; with no Decode
 * submissions the urgent queue is empty and the engine's schedule is
 * byte-for-byte the pre-phase one. Phase changes service order only -
 * outputs and per-request stats stay bit-equal to solo runs.
 *
 * Multi-model fairness: models take turns. A model enters the ring
 * when its first request arrives; after a batch is cut, a model with
 * remaining requests goes to the BACK of the ring. One model flooding
 * the queue therefore costs every other model at most one batch of
 * extra wait per turn - it can never starve them the way the old
 * oldest-request-first pop could. With one worker the service order
 * is fully deterministic (round-robin in ring order, FIFO per model);
 * tests/test_serve_engine.cpp pins it via RequestResult::batchSeq.
 *
 * Overlap: with workers >= 2, one worker's layer-0 operand prep runs
 * concurrently with another worker's GEMM (the GEMM itself is
 * serialized by a mutex so the shared parallel_for pool serves one
 * kernel at a time); both sides fan out on the shared pool.
 *
 * Determinism: per-request outputs and stats are byte-identical for
 * any submission order, worker count, batch window/deadline and
 * PANACEA_ISA level (tests/test_serve_engine.cpp). Engine timing
 * fields (latency percentiles, prep/GEMM ms) are wall-clock and
 * excluded from that contract.
 */

#ifndef PANACEA_SERVE_ENGINE_H
#define PANACEA_SERVE_ENGINE_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "serve/operand_cache.h"
#include "serve/request.h"
#include "serve/served_model.h"

namespace panacea {
namespace serve {

/** Engine configuration (fixed at construction). */
struct EngineOptions
{
    /**
     * Max requests coalesced into one micro-batch. 0 reads
     * PANACEA_BATCH_WINDOW from the environment, falling back to 8.
     */
    int batchWindow = 0;
    /**
     * How long a worker holding a partial batch waits for the window
     * to fill before executing, in milliseconds. 0 = execute whatever
     * is pending immediately (latency-first).
     */
    double batchDeadlineMs = 0.2;
    /**
     * Engine worker threads. 0 picks 2 (one prepping while one runs
     * GEMM); 1 disables the overlap. Workers only change timing, never
     * results.
     */
    int workers = 0;
    /**
     * When true, workers accept submissions but execute nothing until
     * start() is called: submissions queue up and the batch/round-robin
     * schedule becomes a pure function of the submission sequence
     * (deterministic tests, warm-up sequencing). Default: run
     * immediately.
     */
    bool startPaused = false;
    /**
     * Layer-stepped continuous admission. When true, a worker driving
     * a cohort revisits the submission queue BETWEEN layer steps:
     * newly queued same-model requests are caught up through the
     * layers they missed and spliced into the running cohort instead
     * of waiting for the whole stack (see the file header). Cuts
     * head-of-line blocking under open-loop arrivals; bit-exactness
     * and aggregate-stat determinism are unchanged. When false
     * (default), requests batch at layer 0 only and the pinned
     * round-robin batchSeq schedules of paused-start engines are
     * preserved exactly.
     */
    bool continuous = false;
    /**
     * Continuous-mode cap on a cohort's total activation columns:
     * mid-stack admission stops splicing once the cohort carries this
     * many (a request is admitted only if it fits entirely). 0 picks
     * 1024. Layer-0 cohort formation is governed by batchWindow, not
     * this cap.
     */
    int maxInflightColumns = 0;
    /**
     * Deepest layer boundary continuous admission may splice at: a
     * request joins a running cohort at layer L only when
     * L <= maxAdmissionLayer. Catch-up replays L layers at the
     * admission sub-batch's (small, inefficient) width ON the
     * cohort's critical path, so deep admissions trade everyone's
     * execute time for the newcomer's queue wait - boundary 1 was the
     * measured sweet spot under open-loop Poisson arrivals on a
     * 1-core runner. 0 picks 1; raise it to admit at every boundary.
     */
    int maxAdmissionLayer = 0;
    /**
     * Deterministic fault-injection seam (null = no overhead): the
     * executing worker calls stepHook(L) immediately before each main
     * cohort layer step L (catch-up mini-cohorts do not re-invoke it).
     * The hook may BLOCK (stall injection - the cohort, and with one
     * worker the whole engine, freezes until the hook returns) or
     * THROW (fault injection - the cohort aborts, every member's
     * future receives the exception, and the worker moves on to the
     * next batch; the engine itself stays serviceable). This is what
     * the fleet router's quarantine tests drive
     * (serve/fleet.h FleetTestHooks, tests/test_fleet_faults.cpp).
     */
    std::function<void(std::size_t layer)> stepHook;
};

/**
 * Optional per-submission extras of the generation-aware submit()
 * overload. All fields default to the plain-submit behaviour, so
 * submit(model, input) and submit(model, input, {}) are identical.
 */
struct SubmitExtras
{
    /**
     * Scheduling class (see RequestPhase). Decode-phase requests go to
     * the model's urgent queue, drained before its FIFO queue by both
     * cohort formation and continuous admission. Phase never changes
     * results, only service order.
     */
    RequestPhase phase = RequestPhase::Bulk;
    /**
     * Pre-built layer-0 activation operand for `input` (must be
     * exactly ServedModel::prepareInput(input), same column count).
     * When set, cohort formation and catch-up use it verbatim instead
     * of re-quantizing/slicing the input - the generation scheduler
     * preps step N+1's single new column group off the engine's
     * critical path while the cohort GEMMs, then attaches it here.
     * Bit-exactness is unaffected because prepareInput() is
     * deterministic; a mismatched column count is rejected like any
     * malformed request.
     */
    std::shared_ptr<const ActivationOperand> prepared;
    /**
     * Completion hook: invoked exactly once, AFTER the request's
     * promise is resolved (value, fault, or synchronous rejection),
     * from whatever thread resolved it. The generation scheduler's
     * event pump blocks on this instead of polling futures. Must not
     * throw; keep it O(1) - it runs on the engine worker's path.
     */
    std::function<void()> onReady;
};

/**
 * The serving engine. Owns worker threads and (optionally) a model
 * cache reference; all public methods are thread-safe.
 */
class InferenceEngine
{
  public:
    /**
     * @param opts  engine options (see EngineOptions)
     * @param cache prepared-model cache load() goes through; defaults
     *              to the process-wide cache so engines share models
     */
    explicit InferenceEngine(
        const EngineOptions &opts = {},
        PreparedModelCache *cache = &PreparedModelCache::global());

    /** Drains the queue, then joins the workers. */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /**
     * Load (or fetch from cache) a model for serving. Weight operands
     * are prepared at most once per cache key; the returned handle is
     * the submit() routing key.
     */
    std::shared_ptr<const ServedModel>
    load(const ModelSpec &spec, const ServeModelOptions &opts = {});

    /**
     * Enqueue one request. `input` must be model->inputFeatures() rows
     * by a positive multiple-of-v columns (each v-wide column group is
     * an independently batchable unit). Returns a future fulfilled
     * when the request's micro-batch completes. A malformed request
     * (null model, wrong feature rows, bad column count) or a submit
     * after shutdown began is rejected through the future itself -
     * get() throws std::invalid_argument - and never disturbs other
     * requests. A submit racing a drain() is rejected the same way
     * (get() throws std::runtime_error): accepting it could keep
     * extending the drain forever, and fulfilling the rejection
     * through the future means no submission ever hangs.
     */
    std::future<RequestResult>
    submit(std::shared_ptr<const ServedModel> model, MatrixF input);

    /**
     * submit() with per-request extras: a scheduling phase, an
     * optional pre-built layer-0 operand, and a completion hook (see
     * SubmitExtras). The plain overload is exactly
     * submit(model, input, {}).
     */
    std::future<RequestResult>
    submit(std::shared_ptr<const ServedModel> model, MatrixF input,
           SubmitExtras extras);

    /**
     * Release the workers of a startPaused engine (no-op otherwise,
     * idempotent). Requests submitted while paused execute in
     * round-robin ring order once started.
     */
    void start();

    /**
     * Block until every request submitted BEFORE the call has
     * completed. Implies start(): draining a paused engine would
     * otherwise never return. While a drain is in progress concurrent
     * submit() calls are rejected through their futures
     * (std::runtime_error) - previously they were accepted, which let
     * a fast submitter extend the drain unboundedly and left a
     * submit-after-teardown future hanging. Reject-or-complete is
     * pinned in tests/test_serve_engine.cpp.
     */
    void drain();

    /** @return aggregate counters (see EngineStats). */
    EngineStats stats() const;

    /** @return the resolved options (window/deadline/workers). */
    const EngineOptions &options() const { return opts_; }

  private:
    struct Pending;
    struct Member;
    struct ModelQueue;

    void workerLoop();

    /**
     * Execute one cohort to completion, one layer step at a time; in
     * continuous mode, admit queued same-model requests between
     * steps. Fulfils every member's future.
     * @return the number of requests completed (>= batch.size() -
     *         admissions grow the cohort).
     */
    std::size_t runStack(const std::shared_ptr<const ServedModel> &model,
                         std::vector<Pending> &batch,
                         std::uint64_t batch_seq);

    /**
     * Pop queued requests of `model` admissible into a cohort already
     * carrying `cohort_columns` activation columns (FIFO, capped by
     * maxInflightColumns). Takes mutex_; call with no lock held.
     */
    std::vector<Pending> takeAdmissions(const ServedModel *model,
                                        std::size_t cohort_columns);

    /**
     * Run newcomers through layers [0, upto) as their own mini-cohort
     * (the layers they missed), accumulating their per-request stats.
     * @return their float activations adapted for layer `upto`.
     */
    MatrixF catchUp(const ServedModel &model,
                    std::span<Member> newcomers,
                    std::span<const std::size_t> offsets,
                    std::size_t upto, double &prep_ms, double &gemm_ms);

    /**
     * Per-member layer-0 prep + column concat: the cohort- and
     * catch-up-formation primitive (one code path, so the two can
     * never diverge on the splice bit-exactness invariant).
     */
    static ActivationOperand
    prepareLayer0Concat(const ServedModel &model,
                        std::span<const Member> members);

    /** The model's ring slot, or nullptr (requires mutex_). */
    ModelQueue *findQueue(const ServedModel *model);

    EngineOptions opts_;
    PreparedModelCache *cache_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  ///< queue activity
    std::condition_variable drainCv_; ///< completion progress
    /**
     * The round-robin ring: one slot per model with pending requests,
     * in service order (new models join at the back; a model with
     * leftovers after a batch re-joins at the back). Requests are
     * FIFO within a slot. deque: refs to surviving slots stay valid
     * across push/pop at the ends.
     */
    std::deque<ModelQueue> ring_;
    std::size_t pendingCount_ = 0;
    std::size_t inFlight_ = 0;
    std::uint64_t nextId_ = 0;
    std::uint64_t nextBatchSeq_ = 0;
    bool started_ = false;
    bool stopping_ = false;
    int draining_ = 0; ///< active drain() calls; submit() rejects while > 0

    std::mutex gemmMutex_; ///< one GEMM at a time on the shared pool

    /**
     * Aggregate state is O(1) in served requests: counters fold
     * incrementally (exact integer sums, so completion order cannot
     * change them; the one floating-point stats field is reconstructed
     * from exact sums in stats()), and latency percentiles cover a
     * fixed-size window of the most recent requests.
     */
    mutable std::mutex statsMutex_;
    AqsStats aggregate_;             ///< integer counters only
    double macsWeightedSum_ = 0.0;   ///< sum of v*v * denseOuterProducts
    std::uint64_t requests_ = 0;
    std::uint64_t prefillRequests_ = 0;
    std::uint64_t decodeRequests_ = 0;
    /**
     * Rings of recent per-request timings, pushed together so the
     * three percentile series always cover the SAME completed
     * requests (asserted in stats()).
     */
    std::vector<float> latenciesMs_;
    std::vector<float> queueWaitsMs_;
    std::vector<float> executesMs_;
    std::size_t latencyNext_ = 0;
    /** admissionHist_[L] = completed requests admitted at layer L. */
    std::vector<std::uint64_t> admissionHist_;
    std::uint64_t batches_ = 0;
    std::uint64_t columns_ = 0;
    std::uint64_t macs_ = 0;
    std::size_t maxBatch_ = 0;
    double prepMs_ = 0.0;
    double gemmMs_ = 0.0;

    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace panacea

#endif // PANACEA_SERVE_ENGINE_H
