/**
 * @file
 * panacea::Fleet - the horizontally-scaled serving surface. Where a
 * Session is one engine, a Fleet is N engine replicas behind a
 * queue-depth-aware router: per-model placement, least-outstanding
 * dispatch, bounded per-replica queues with typed load-shedding
 * (FleetOutcome::Rejected instead of unbounded latency), replica
 * quarantine with redispatch on faults, and hot-reload of a new
 * compiled-model version under live traffic.
 *
 * Typical use:
 *
 *   panacea::RuntimeOptions ropts;
 *   ropts.replicas = 4;                    // or PANACEA_REPLICAS
 *   panacea::Runtime rt(ropts);
 *   panacea::CompiledModel model = rt.compile(spec);
 *   panacea::Fleet fleet = rt.createFleet();
 *   fleet.deploy(model);
 *   auto fut = fleet.submit(spec.name, input);
 *   panacea::FleetResult r = fut.get();    // never throws
 *   if (r.outcome == panacea::FleetOutcome::Completed) use(r.result);
 *   else retryElsewhere(r.rejectReason);   // typed shed, not an error
 *
 *   fleet.reload(rt.compile(newSpec));     // hot-swap, zero downtime
 *
 * Every submission yields exactly one terminal FleetResult (completed
 * xor rejected); completed outputs are byte-identical to a solo
 * Session run regardless of replica count, faults, or reload timing.
 * With .pncm models loaded via mmap, all replicas share one
 * physical copy of the weights. Fleets must not outlive their
 * Runtime. See src/serve/fleet.h for the full router semantics.
 */

#ifndef PANACEA_PUBLIC_FLEET_H
#define PANACEA_PUBLIC_FLEET_H

#include <future>
#include <memory>
#include <string>
#include <utility>

#include "panacea/compiled_model.h"
#include "panacea/generation.h"
#include "serve/fleet.h"

namespace panacea {

/**
 * Fleet configuration: replica count (0 -> PANACEA_REPLICAS -> 2),
 * per-replica column bounds (queueCapColumns/engineDepthColumns),
 * placement width, stall detection, paused start, per-replica engine
 * options and test hooks. See serve/fleet.h for field semantics.
 */
using FleetOptions = serve::FleetOptions;

/** Completed xor Rejected - every submission gets exactly one. */
using FleetOutcome = serve::FleetOutcome;

/** Terminal record: outcome, engine result, replica, version, why. */
using FleetResult = serve::FleetResult;

/** Aggregate router counters plus per-replica health. */
using FleetStats = serve::FleetStats;

/** Deterministic per-replica fault injection (tests). */
using FleetTestHooks = serve::FleetTestHooks;

/** The multi-replica serving handle; see the file header. */
class Fleet
{
  public:
    Fleet() = default;

    /**
     * Wrap a router. Application code uses Runtime::createFleet()
     * instead.
     */
    explicit Fleet(const FleetOptions &opts)
        : router_(std::make_unique<serve::ReplicaRouter>(opts))
    {}

    /** @return whether this fleet holds a router. */
    bool valid() const { return router_ != nullptr; }

    /**
     * Make `model` routable by its compiled name; deploying a name
     * again is a hot-reload. @return the version new submissions get.
     */
    std::uint64_t deploy(const CompiledModel &model)
    {
        return router_->deploy(model.shared());
    }

    /**
     * Hot-reload: atomically swap what `model`'s name routes to.
     * In-flight requests complete on the version they were admitted
     * under (FleetResult::modelVersion tags each).
     */
    std::uint64_t reload(const CompiledModel &model)
    {
        return router_->reload(model.shared());
    }

    /**
     * Submit one request to the named deployed model. The future
     * ALWAYS yields exactly one FleetResult and never throws:
     * backpressure, unknown names and malformed inputs surface as
     * typed Rejected results.
     */
    std::future<FleetResult> submit(const std::string &model_name,
                                    MatrixF input)
    {
        return router_->submit(model_name, std::move(input));
    }

    /** Convenience overload routing by the model's compiled name. */
    std::future<FleetResult> submit(const CompiledModel &model,
                                    MatrixF input)
    {
        return router_->submit(model.shared()->spec().name,
                               std::move(input));
    }

    /**
     * Run one autoregressive generation over the fleet (see
     * panacea/generation.h): the same chunked-prefill + seeded-decode
     * chain as Session::generate, each step routed (and possibly
     * redispatched) by the router under its phase tag - so outputs
     * are byte-identical to the Session path at any replica count.
     * The future yields the GenerationResult, or throws
     * std::runtime_error when a step was shed/rejected mid-chain
     * (unlike submit(), whose rejections are typed results - a
     * half-generated sequence has no useful typed half). The Fleet
     * must outlive the returned future.
     */
    std::future<GenerationResult>
    generate(const std::string &model_name, GenerationRequest req)
    {
        return std::async(
            std::launch::async,
            [router = router_.get(), model_name,
             r = std::move(req)]() mutable {
                return serve::generateOverRouter(*router, model_name,
                                                 std::move(r));
            });
    }

    /** Convenience overload routing by the model's compiled name. */
    std::future<GenerationResult>
    generate(const CompiledModel &model, GenerationRequest req)
    {
        return generate(model.shared()->spec().name, std::move(req));
    }

    /** Release a startPaused fleet's dispatchers (idempotent). */
    void start() { router_->start(); }

    /** Block until every prior submission reached a terminal result
     *  (implies start; concurrent submits reject while draining). */
    void drain() { router_->drain(); }

    /** Open every test-hook stall latch (idempotent; tests). */
    void releaseStalls() { router_->releaseStalls(); }

    /** @return router counters and per-replica health. */
    FleetStats stats() const { return router_->stats(); }

    /** @return the resolved options. */
    const FleetOptions &options() const { return router_->options(); }

    /** @return the replica count after defaulting. */
    int replicaCount() const { return router_->replicaCount(); }

  private:
    std::unique_ptr<serve::ReplicaRouter> router_;
};

} // namespace panacea

#endif // PANACEA_PUBLIC_FLEET_H
