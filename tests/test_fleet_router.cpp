/**
 * @file
 * Property and determinism tests for the fleet tier
 * (serve/fleet.h ReplicaRouter through the panacea::Fleet facade).
 * The invariants under test:
 *
 *   1. Exactly-once: every submission yields exactly one terminal
 *      FleetResult - Completed xor Rejected - across overload
 *      schedules, replica counts and concurrent submitters. Futures
 *      never throw and never dangle.
 *   2. Bit-exactness: a Completed request's output and stats are
 *      byte-identical to a solo single-engine run, whatever replica
 *      served it and whatever else was in flight.
 *   3. Pinned dispatch: on a paused router the placement schedule is
 *      a pure function of the submission sequence - replicated here
 *      by an independent reference simulator of the
 *      least-outstanding-columns rule, and hand-pinned for one case.
 *   4. Typed backpressure: admission failures (queue bounds, unknown
 *      names, malformed inputs) reject with a reason, immediately.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "isa_guard.h"
#include "panacea/fleet.h"
#include "panacea/runtime.h"
#include "panacea/session.h"
#include "pool_guard.h"
#include "util/cpu_features.h"
#include "util/fnv.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace panacea {
namespace {

/** Same three-layer toy stack the engine tests use. */
ModelSpec
tinySpec(const std::string &name = "fleet-test-tiny")
{
    ModelSpec spec;
    spec.name = name;
    spec.seqLen = 16;
    LayerSpec l0;
    l0.name = "L0.FC1";
    l0.m = 24;
    l0.kDim = 16;
    l0.dist = ActDistKind::LayerNormGauss;
    LayerSpec l1;
    l1.name = "L1.FC2";
    l1.m = 16;
    l1.kDim = 24;
    l1.dist = ActDistKind::PostGelu;
    LayerSpec l2;
    l2.name = "L2.PROJ";
    l2.m = 20;
    l2.kDim = 12;
    l2.dist = ActDistKind::PostAttention;
    spec.layers = {l0, l1, l2};
    return spec;
}

std::vector<MatrixF>
makeRequests(std::size_t features, std::size_t count,
             std::uint64_t seed = 0xbeef)
{
    Rng rng(seed);
    std::vector<MatrixF> inputs;
    inputs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        MatrixF x(features, (i % 3 == 0) ? 8 : 4);
        for (auto &v : x.data())
            v = static_cast<float>(rng.gaussian(0.2, 1.0));
        inputs.push_back(std::move(x));
    }
    return inputs;
}

/** Solo references: each input through a window-1 session alone. */
std::vector<InferenceResult>
soloRun(Runtime &rt, const CompiledModel &model,
        const std::vector<MatrixF> &inputs)
{
    SessionOptions opts;
    opts.batchWindow = 1;
    opts.batchDeadlineMs = 0.0;
    opts.workers = 1;
    Session session = rt.createSession(opts);
    std::vector<InferenceResult> out;
    out.reserve(inputs.size());
    for (const MatrixF &x : inputs)
        out.push_back(session.infer(model, x));
    return out;
}

/**
 * Independent model of the router's admission rule for full-width
 * placement: least outstanding columns among replicas that can take
 * `cols` under the cap, ties to the lowest index, -1 = shed. Valid
 * while nothing completes (a paused router), which is exactly how the
 * pinned-dispatch tests run it.
 */
struct SimRouter
{
    std::vector<std::size_t> outstanding;
    std::size_t cap;

    SimRouter(int replicas, std::size_t cap_cols)
        : outstanding(static_cast<std::size_t>(replicas), 0),
          cap(cap_cols)
    {}

    int submit(std::size_t cols)
    {
        int best = -1;
        std::size_t best_out = 0;
        for (int r = 0; r < static_cast<int>(outstanding.size());
             ++r) {
            const std::size_t out =
                outstanding[static_cast<std::size_t>(r)];
            if (out + cols > cap)
                continue;
            if (best < 0 || out < best_out) {
                best = r;
                best_out = out;
            }
        }
        if (best >= 0)
            outstanding[static_cast<std::size_t>(best)] += cols;
        return best;
    }
};

TEST(FleetRouter, PinnedDispatchForAFixedSubmissionSequence)
{
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-pinned");
    const CompiledModel model = rt.compile(spec);

    // Two replicas, 12-column bound, twelve 4-column submissions -
    // twice what the fleet can hold: the least-outstanding rule
    // alternates 0,1,0,1,0,1 (ties break to the lowest index), filling
    // both replicas to the bound; the other six shed, typed. Nothing
    // is lost (one terminal each) and what completes is bit-exact
    // against a solo run. Hand-pinned - if dispatch ever changes, this
    // fails before the property tests do.
    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.queueCapColumns = 12;
    fopts.startPaused = true;
    fopts.engine.workers = 1;
    Fleet fleet = rt.createFleet(fopts);
    fleet.deploy(model);

    MatrixF x(model.inputFeatures(), 4);
    for (auto &v : x.data())
        v = 0.25f;
    const std::vector<InferenceResult> solo = soloRun(rt, model, {x});
    std::vector<std::future<FleetResult>> futs;
    for (int i = 0; i < 12; ++i)
        futs.push_back(fleet.submit(spec.name, x));
    fleet.start();
    fleet.drain();

    const int expect_replica[12] = {0,  1,  0,  1,  0,  1,
                                    -1, -1, -1, -1, -1, -1};
    for (int i = 0; i < 12; ++i) {
        FleetResult r = futs[i].get();
        if (expect_replica[i] < 0) {
            EXPECT_EQ(r.outcome, FleetOutcome::Rejected)
                << "submission " << i;
            EXPECT_NE(r.rejectReason.find("queue full"),
                      std::string::npos)
                << r.rejectReason;
        } else {
            ASSERT_EQ(r.outcome, FleetOutcome::Completed)
                << "submission " << i << ": " << r.rejectReason;
            EXPECT_EQ(r.replica, expect_replica[i])
                << "submission " << i;
            EXPECT_EQ(r.dispatches, 1);
            EXPECT_TRUE(r.result.output == solo[0].output)
                << "submission " << i;
        }
    }
    const FleetStats s = fleet.stats();
    EXPECT_EQ(s.submitted, 12u);
    EXPECT_EQ(s.completed, 6u);
    EXPECT_EQ(s.rejected, 6u);
    EXPECT_EQ(s.redispatched, 0u);
}

TEST(FleetRouter, DispatchMatchesReferenceSimulatorAcrossSeeds)
{
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-sim");
    const CompiledModel model = rt.compile(spec);
    const std::vector<MatrixF> pool =
        makeRequests(model.inputFeatures(), 8);
    const std::vector<InferenceResult> solo = soloRun(rt, model, pool);

    for (int replicas : {1, 2, 3}) {
        for (std::uint64_t seed : {0x11ull, 0x22ull, 0x33ull}) {
            FleetOptions fopts;
            fopts.replicas = replicas;
            fopts.queueCapColumns = 16;
            fopts.startPaused = true;
            fopts.engine.workers = 1;
            Fleet fleet = rt.createFleet(fopts);
            fleet.deploy(model);
            SimRouter sim(replicas, fopts.queueCapColumns);

            // A seeded random overload schedule: enough submissions
            // to overflow every replica several times over.
            Rng rng(seed);
            std::vector<std::size_t> picks;
            std::vector<int> expect;
            std::vector<std::future<FleetResult>> futs;
            for (int i = 0; i < 24; ++i) {
                const std::size_t idx = static_cast<std::size_t>(
                    rng.uniformReal(0.0, 1.0) *
                    static_cast<double>(pool.size()));
                const std::size_t pick =
                    idx < pool.size() ? idx : pool.size() - 1;
                picks.push_back(pick);
                expect.push_back(sim.submit(pool[pick].cols()));
                futs.push_back(fleet.submit(spec.name, pool[pick]));
            }
            fleet.start();
            fleet.drain();

            std::uint64_t completed = 0;
            std::uint64_t rejected = 0;
            for (std::size_t i = 0; i < futs.size(); ++i) {
                FleetResult r = futs[i].get();
                if (expect[i] < 0) {
                    EXPECT_EQ(r.outcome, FleetOutcome::Rejected)
                        << "replicas=" << replicas << " seed=" << seed
                        << " i=" << i;
                    ++rejected;
                } else {
                    ASSERT_EQ(r.outcome, FleetOutcome::Completed)
                        << "replicas=" << replicas << " seed=" << seed
                        << " i=" << i << ": " << r.rejectReason;
                    EXPECT_EQ(r.replica, expect[i])
                        << "replicas=" << replicas << " seed=" << seed
                        << " i=" << i;
                    // Bit-exact vs the solo run of the same input.
                    EXPECT_TRUE(r.result.output ==
                                solo[picks[i]].output);
                    ++completed;
                }
            }
            // Exactly one terminal result each, reflected in stats.
            const FleetStats s = fleet.stats();
            EXPECT_EQ(s.submitted, futs.size());
            EXPECT_EQ(s.completed, completed);
            EXPECT_EQ(s.rejected, rejected);
            EXPECT_EQ(s.completed + s.rejected, s.submitted);
        }
    }
}

TEST(FleetRouter, OutputsAreBitExactAtEveryIsaLevel)
{
    PoolGuard pool_guard;
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-isa");
    const CompiledModel model = rt.compile(spec);
    const std::vector<MatrixF> inputs =
        makeRequests(model.inputFeatures(), 6);
    // Outputs are bit-identical across ISA levels repo-wide, so one
    // set of solo references serves every leg.
    const std::vector<InferenceResult> solo =
        soloRun(rt, model, inputs);

    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        FleetOptions fopts;
        fopts.replicas = 2;
        fopts.engine.workers = 1;
        Fleet fleet = rt.createFleet(fopts);
        fleet.deploy(model);
        std::vector<std::future<FleetResult>> futs;
        for (const MatrixF &x : inputs)
            futs.push_back(fleet.submit(spec.name, x));
        fleet.drain();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            FleetResult r = futs[i].get();
            ASSERT_EQ(r.outcome, FleetOutcome::Completed)
                << "isa=" << toString(isa) << " i=" << i;
            EXPECT_TRUE(r.result.output == solo[i].output)
                << "isa=" << toString(isa) << " i=" << i;
        }
    }
}

TEST(FleetRouter, ConcurrentSubmittersGetExactlyOneTerminalEach)
{
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-stress");
    const CompiledModel model = rt.compile(spec);
    const std::vector<MatrixF> pool =
        makeRequests(model.inputFeatures(), 8);
    const std::vector<InferenceResult> solo = soloRun(rt, model, pool);

    // Live (unpaused) router with tight bounds so the submitters
    // genuinely race dispatch, harvest and shed decisions.
    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.queueCapColumns = 16;
    fopts.engineDepthColumns = 8;
    fopts.engine.workers = 1;
    Fleet fleet = rt.createFleet(fopts);
    fleet.deploy(model);

    constexpr int kPerThread = 40;
    constexpr int kThreads = 2;
    std::vector<std::vector<std::size_t>> picks(kThreads);
    std::vector<std::vector<std::future<FleetResult>>> futs(kThreads);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            Rng rng(0x5eed + static_cast<std::uint64_t>(t));
            for (int i = 0; i < kPerThread; ++i) {
                const std::size_t idx = static_cast<std::size_t>(
                    rng.uniformReal(0.0, 1.0) *
                    static_cast<double>(pool.size()));
                const std::size_t pick =
                    idx < pool.size() ? idx : pool.size() - 1;
                picks[t].push_back(pick);
                futs[t].push_back(
                    fleet.submit(spec.name, pool[pick]));
            }
        });
    }
    for (std::thread &s : submitters)
        s.join();
    fleet.drain();

    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    for (int t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < futs[t].size(); ++i) {
            FleetResult r = futs[t][i].get(); // never throws
            if (r.outcome == FleetOutcome::Completed) {
                EXPECT_TRUE(r.result.output ==
                            solo[picks[t][i]].output)
                    << "thread " << t << " req " << i;
                ++completed;
            } else {
                EXPECT_FALSE(r.rejectReason.empty());
                ++rejected;
            }
        }
    }
    const FleetStats s = fleet.stats();
    EXPECT_EQ(s.submitted,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(s.completed, completed);
    EXPECT_EQ(s.rejected, rejected);
    EXPECT_EQ(s.completed + s.rejected, s.submitted);
}

TEST(FleetRouter, AdmissionFailuresRejectTypedAndImmediately)
{
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-reject");
    const CompiledModel model = rt.compile(spec);
    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.engine.workers = 1;
    Fleet fleet = rt.createFleet(fopts);
    fleet.deploy(model);

    // Unknown name.
    FleetResult unknown =
        fleet.submit("no-such-model", MatrixF(24, 4)).get();
    EXPECT_EQ(unknown.outcome, FleetOutcome::Rejected);
    EXPECT_NE(unknown.rejectReason.find("unknown model"),
              std::string::npos);

    // Malformed: wrong rows, then a non-multiple-of-v column count.
    FleetResult bad_rows =
        fleet.submit(spec.name,
                     MatrixF(model.inputFeatures() + 1, 4))
            .get();
    EXPECT_EQ(bad_rows.outcome, FleetOutcome::Rejected);
    EXPECT_NE(bad_rows.rejectReason.find("malformed"),
              std::string::npos);
    FleetResult bad_cols =
        fleet.submit(spec.name, MatrixF(model.inputFeatures(), 3))
            .get();
    EXPECT_EQ(bad_cols.outcome, FleetOutcome::Rejected);

    // The fleet keeps serving after every rejection.
    MatrixF x(model.inputFeatures(), 4);
    for (auto &v : x.data())
        v = 0.25f;
    FleetResult ok = fleet.submit(spec.name, x).get();
    EXPECT_EQ(ok.outcome, FleetOutcome::Completed);
    EXPECT_EQ(fleet.stats().rejected, 3u);
}

TEST(FleetRouter, PlacementWidthIsolatesModels)
{
    Runtime rt;
    const ModelSpec spec_a = tinySpec("fleet-place-a");
    const int home_a = static_cast<int>(
        fnv1a64(spec_a.name.data(), spec_a.name.size()) % 2);
    // Pick B's name so the two models hash to DIFFERENT home
    // replicas (the shared fnv1a64 is the router's placement hash).
    ModelSpec spec_b = tinySpec("fleet-place-b");
    int home_b = home_a;
    for (int i = 0; home_b == home_a; ++i) {
        spec_b = tinySpec("fleet-place-b" + std::to_string(i));
        home_b = static_cast<int>(
            fnv1a64(spec_b.name.data(), spec_b.name.size()) % 2);
    }
    const CompiledModel model_a = rt.compile(spec_a);
    const CompiledModel model_b = rt.compile(spec_b);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.placementWidth = 1;
    fopts.queueCapColumns = 8;
    fopts.startPaused = true;
    fopts.engine.workers = 1;
    Fleet fleet = rt.createFleet(fopts);
    fleet.deploy(model_a);
    fleet.deploy(model_b);

    MatrixF x(model_a.inputFeatures(), 4);
    for (auto &v : x.data())
        v = 0.25f;
    // Fill A's home replica to its bound (2 x 4 cols), then overflow:
    // the overflow sheds even though the OTHER replica is idle -
    // that's the isolation contract.
    std::vector<std::future<FleetResult>> a_futs;
    for (int i = 0; i < 3; ++i)
        a_futs.push_back(fleet.submit(spec_a.name, x));
    auto b_fut = fleet.submit(spec_b.name, x);
    fleet.start();
    fleet.drain();

    for (int i = 0; i < 2; ++i) {
        FleetResult r = a_futs[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, FleetOutcome::Completed);
        EXPECT_EQ(r.replica, home_a);
    }
    FleetResult overflow = a_futs[2].get();
    EXPECT_EQ(overflow.outcome, FleetOutcome::Rejected);
    FleetResult rb = b_fut.get();
    ASSERT_EQ(rb.outcome, FleetOutcome::Completed);
    EXPECT_EQ(rb.replica, home_b);
}

} // namespace
} // namespace panacea
