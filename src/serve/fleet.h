/**
 * @file
 * The fleet tier: a ReplicaRouter fronting N InferenceEngine replicas
 * (thread-scoped, each with its own worker threads) that share one
 * immutable ServedModel per deployed model - with .pncm models
 * mmapped read-only, replicas share a single physical copy of the
 * weights, so a replica costs threads, not memory.
 *
 * Topology (one router, N replicas, per-model placement):
 *
 *   submit(name, input) ─▶ [admission, under the router mutex]
 *        │   draining / unknown model / malformed / every placement
 *        │   replica full or quarantined ─▶ typed Rejected result
 *        ▼
 *   placement set of `name` (placementWidth consecutive replicas,
 *   start = hash(name) % N) ∩ healthy ─▶ least outstanding COLUMNS
 *   (queued + in-engine; tie → lowest index) ─▶ replica r's bounded
 *   FIFO queue
 *        ▼                      per replica r:
 *   [dispatcher thread r] ─▶ forwards while in-engine columns <
 *        │                   engineDepthColumns (keeping depth
 *        │                   shallow preserves redispatchability)
 *        ▼
 *   InferenceEngine r (continuous batching over the shared model)
 *        ▼
 *   [harvester thread r] ─▶ Completed{output, replica, version}
 *                           or, on an engine fault: quarantine r,
 *                           recall its queue, redispatch-or-shed
 *
 * Exactly-once: a request's promise has a single owner at every
 * instant - it moves router queue → in-engine list → fulfilment, and
 * every admission failure fulfils it immediately with a typed
 * Rejected - so each submission gets exactly one terminal result
 * (completed xor rejected), never zero, never two
 * (tests/test_fleet_router.cpp).
 *
 * Backpressure: queues are bounded in COLUMNS (the engine's unit of
 * work - requests vary in width). A full placement set sheds at
 * admission with FleetOutcome::Rejected instead of queueing
 * unboundedly: under overload, p99 of what IS served stays bounded
 * and the shed rate is the overload signal (pinned at 2x capacity by
 * FleetRouter.PinnedDispatchForAFixedSubmissionSequence).
 *
 * Fault handling: an engine throw (or a stall detected by
 * stallTimeoutMs) quarantines the replica - it takes no new work and
 * its router-queued requests are recalled and redispatched to healthy
 * replicas (or shed, typed, when none can take them). Requests
 * already forwarded INTO a stalled engine cannot be recalled (the
 * engine owns them); they complete if the stall ever releases -
 * still exactly once, on the quarantined replica. A THROWN cohort's
 * requests, by contrast, come back through the future's exception and
 * ARE redispatched. FleetOptions::testHooks drives all three modes
 * deterministically (tests/test_fleet_faults.cpp).
 *
 * Hot-reload: reload(model) atomically replaces the model a name
 * routes NEW submissions to; requests admitted earlier hold a
 * shared_ptr to the version they were admitted under and complete on
 * it (FleetResult::modelVersion says which). ServedModel is immutable
 * after construction, so no request ever observes a torn model; the
 * old version is released when its last in-flight request drains
 * (tests/test_fleet_reload.cpp).
 *
 * Determinism: dispatch depends only on submission order and queue
 * depths, so a paused router (startPaused, submit everything, then
 * start) has a pinned placement schedule for a fixed submission
 * sequence; outputs are byte-identical to solo runs regardless of
 * replica count, fault schedule, or reload timing because replicas
 * never split a request (whole-request dispatch onto bit-exact
 * engines).
 */

#ifndef PANACEA_SERVE_FLEET_H
#define PANACEA_SERVE_FLEET_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "serve/request.h"
#include "serve/served_model.h"

namespace panacea {
namespace serve {

/** Terminal disposition of a fleet submission (exactly one per). */
enum class FleetOutcome
{
    Completed, ///< served; FleetResult::result holds the engine result
    Rejected   ///< load-shed or refused; rejectReason says why
};

/** Terminal result of one fleet submission. */
struct FleetResult
{
    FleetOutcome outcome = FleetOutcome::Rejected;
    /** Engine-level result (output, stats); valid when Completed. */
    RequestResult result;
    /** Why the request was shed/refused; empty when Completed. */
    std::string rejectReason;
    /** Replica that served it; -1 when Rejected before dispatch. */
    int replica = -1;
    /** Engine forwards (>1 = redispatched after a replica fault). */
    int dispatches = 0;
    /** Model version the request executed on (reload boundary tag). */
    std::uint64_t modelVersion = 0;
    /** Submit-to-terminal wall time as seen by the router. */
    double fleetLatencyMs = 0.0;
};

/**
 * Deterministic per-replica fault injection (tests only; default =
 * all off). Entries index replicas; a shorter vector leaves the rest
 * at defaults.
 */
struct FleetTestHooks
{
    struct Replica
    {
        /** Sleep this long before each engine forward (slow replica). */
        double admitDelayMs = 0.0;
        /**
         * Throw from the replica's Nth executed cohort (1-based; 0 =
         * never): the whole cohort's futures get the exception and
         * the router must quarantine + redispatch.
         */
        std::uint64_t throwOnCohort = 0;
        /**
         * Block the replica's engine at this layer boundary until
         * ReplicaRouter::releaseStalls() (-1 = never): models a hung
         * replica for stall-detection tests.
         */
        int stallAtLayer = -1;
    };
    std::vector<Replica> replicas;
};

/** Router configuration (fixed at construction). */
struct FleetOptions
{
    /** Replica count. 0 reads PANACEA_REPLICAS, falling back to 2. */
    int replicas = 0;
    /**
     * Per-replica bound on outstanding activation columns (router
     * queue + in-engine). Admission sheds when every healthy
     * placement replica is at the bound. 0 picks 256.
     */
    std::size_t queueCapColumns = 0;
    /**
     * Per-replica cap on columns forwarded INTO the engine at once;
     * the rest wait in the router queue where they can still be
     * recalled on a fault. 0 picks 64 (clamped to queueCapColumns).
     */
    std::size_t engineDepthColumns = 0;
    /**
     * Replicas each model is placed on (consecutive from
     * hash(name) % replicas). 0 = all replicas. Width < N isolates
     * models from each other's overload.
     */
    int placementWidth = 0;
    /**
     * Harvester wait before declaring an unresponsive replica stalled
     * and quarantining it (its QUEUED requests redispatch; the stuck
     * in-engine cohort completes if the stall ever releases). 0 =
     * stall detection off (faults still quarantine via exceptions).
     */
    double stallTimeoutMs = 0.0;
    /**
     * When true, dispatchers forward nothing until start():
     * submissions accumulate and the dispatch schedule becomes a pure
     * function of the submission sequence (deterministic tests).
     */
    bool startPaused = false;
    /**
     * Per-replica engine options. workers <= 0 picks 1 (one engine
     * worker per replica - the replica IS the unit of parallelism);
     * startPaused is forced false (the router gates dispatch
     * instead).
     */
    EngineOptions engine;
    FleetTestHooks testHooks;
};

/** Aggregate router counters (monotonic; see also EngineStats). */
struct FleetStats
{
    struct Replica
    {
        std::uint64_t dispatched = 0; ///< engine forwards
        std::uint64_t completed = 0;
        std::uint64_t faults = 0;    ///< cohorts that threw
        std::uint64_t recalled = 0;  ///< queued reqs pulled on fault
        bool quarantined = false;
        std::string quarantineReason;
        std::size_t outstandingColumns = 0; ///< queued + in-engine
    };
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;     ///< typed sheds/refusals
    std::uint64_t redispatched = 0; ///< re-forwards after faults
    std::uint64_t reloads = 0;
    std::uint64_t quarantined = 0;  ///< replicas currently quarantined
    std::vector<Replica> replicas;
};

/**
 * The fleet front-end. One instance owns N replicas (engine +
 * dispatcher thread + harvester thread each) and routes by model
 * name; all public methods are thread-safe.
 */
class ReplicaRouter
{
  public:
    explicit ReplicaRouter(const FleetOptions &opts = {});

    /** Releases stalls, drains what it can, then joins everything. */
    ~ReplicaRouter();

    ReplicaRouter(const ReplicaRouter &) = delete;
    ReplicaRouter &operator=(const ReplicaRouter &) = delete;

    /**
     * Make `model` routable by its spec().name. Deploying a name that
     * already exists is a hot-reload (see reload()).
     * @return the version tag new submissions will carry.
     */
    std::uint64_t deploy(std::shared_ptr<const ServedModel> model);

    /**
     * Hot-reload: atomically swap the model `model->spec().name`
     * routes to. In-flight and queued requests complete on the
     * version they were admitted under; submissions after return
     * carry the new version. Never blocks on traffic.
     */
    std::uint64_t reload(std::shared_ptr<const ServedModel> model);

    /**
     * Submit one request to the named model. ALWAYS yields exactly
     * one terminal FleetResult through the future - Completed, or
     * typed Rejected (unknown model, malformed input, drain in
     * progress, or every healthy placement replica at its column
     * bound). The future never throws.
     */
    std::future<FleetResult> submit(const std::string &model_name,
                                    MatrixF input,
                                    RequestPhase phase =
                                        RequestPhase::Bulk);

    /**
     * @return the model NEW submissions of `name` currently route to
     * (what the generation loop sizes prompts and samplers against),
     * or null when the name is not deployed. A reload after return
     * may supersede it - requests admitted earlier still complete on
     * their pinned version.
     */
    std::shared_ptr<const ServedModel>
    deployedModel(const std::string &name) const;

    /** Release a startPaused router's dispatchers (idempotent). */
    void start();

    /**
     * Block until every prior submission reached its terminal result.
     * Implies start(); concurrent submit() calls are Rejected while
     * draining (same reject-or-complete contract as the engine's).
     */
    void drain();

    /** Open every testHooks stall latch (idempotent). */
    void releaseStalls();

    FleetStats stats() const;
    const FleetOptions &options() const { return opts_; }
    int replicaCount() const
    {
        return static_cast<int>(replicas_.size());
    }

  private:
    struct PendingReq;  ///< a promise-owning queued request
    struct InFlightReq; ///< forwarded: pending + engine future
    struct Deployment;  ///< name -> (model, version)
    struct Replica;     ///< engine + queues + threads + counters
    struct StallLatch;  ///< shared releasable block for stall hooks

    void dispatchLoop(std::size_t r);
    void harvestLoop(std::size_t r);

    /** Healthy placement replica with least outstanding columns, or
     *  -1. Requires mutex_. */
    int pickReplicaLocked(const std::string &name,
                          std::size_t cols) const;
    /** Queue onto replica r (requires mutex_; caller notifies). */
    void enqueueLocked(int r, PendingReq &&req);
    /** Move a recalled/faulted request to a healthy replica, or shed
     *  it typed (requires mutex_). */
    void redispatchLocked(PendingReq &&req);
    /** Mark r quarantined and recall its router queue (requires
     *  mutex_). */
    void quarantineLocked(std::size_t r, const std::string &why);
    /** Fulfil a typed rejection and count it (requires mutex_). */
    void rejectLocked(PendingReq &&req, std::string why);

    FleetOptions opts_;

    mutable std::mutex mutex_;
    std::condition_variable drainCv_;
    std::vector<std::unique_ptr<Replica>> replicas_;
    std::vector<Deployment> deployments_;
    std::shared_ptr<StallLatch> stallLatch_;
    std::uint64_t nextVersion_ = 1;
    std::uint64_t submitted_ = 0;
    std::uint64_t terminal_ = 0; ///< completed + rejected
    std::uint64_t completed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t redispatched_ = 0;
    std::uint64_t reloads_ = 0;
    bool started_ = false;
    int draining_ = 0;
    bool stopping_ = false;
};

} // namespace serve
} // namespace panacea

#endif // PANACEA_SERVE_FLEET_H
