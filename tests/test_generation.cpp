/**
 * @file
 * Generation subsystem tests (src/serve/generation/).
 *
 * The contract under test: a generation's bytes are a pure function of
 * (samplerSeed, prompt bytes) - prefill chunking, ISA level, worker
 * count, admission layer and replica count change WHEN steps execute,
 * never WHAT they compute. On top of identity: the engine's urgent
 * queue pins a deterministic decode-over-prefill schedule, and the
 * scheduler's decode steps overtake queued Bulk work; a long chunked
 * prefill may not delay a running decode stream by more than one chunk;
 * SubmitExtras::prepared operands are bit-exact and onReady fires
 * exactly once on every path; drain() delivers exactly one terminal
 * per generation and rejects concurrent generate() calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "isa_guard.h"
#include "panacea/fleet.h"
#include "panacea/runtime.h"
#include "panacea/session.h"
#include "pool_guard.h"
#include "serve/engine.h"
#include "serve/generation/generation.h"
#include "serve/served_model.h"
#include "util/cpu_features.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace panacea {
namespace {

/** Three layers, distinct distributions, one feature-width bend. */
ModelSpec
tinySpec(const std::string &name = "gen-test-tiny")
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
    l2.kDim = 12; // mismatched on purpose: exercises adaptFeatures
    l2.dist = ActDistKind::PostAttention;
    spec.layers = {l0, l1, l2};
    return spec;
}

/** Bigger layers so chunk GEMMs dominate scheduling noise (fairness). */
ModelSpec
fairSpec()
{
    ModelSpec spec;
    spec.name = "gen-test-fair";
    spec.seqLen = 16;
    LayerSpec l0;
    l0.name = "F0";
    l0.m = 64;
    l0.kDim = 48;
    l0.dist = ActDistKind::LayerNormGauss;
    LayerSpec l1;
    l1.name = "F1";
    l1.m = 48;
    l1.kDim = 64;
    l1.dist = ActDistKind::PostGelu;
    LayerSpec l2;
    l2.name = "F2";
    l2.m = 56;
    l2.kDim = 48;
    l2.dist = ActDistKind::PostAttention;
    spec.layers = {l0, l1, l2};
    return spec;
}

MatrixF
makePrompt(std::size_t features, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    MatrixF x(features, cols);
    for (auto &v : x.data())
        v = static_cast<float>(rng.gaussian(0.2, 1.0));
    return x;
}

void
expectStatsEqual(const AqsStats &a, const AqsStats &b)
{
    EXPECT_EQ(a.denseOuterProducts, b.denseOuterProducts);
    EXPECT_EQ(a.executedOuterProducts, b.executedOuterProducts);
    EXPECT_EQ(a.skippedOuterProducts, b.skippedOuterProducts);
    EXPECT_EQ(a.mults, b.mults);
    EXPECT_EQ(a.adds, b.adds);
    EXPECT_EQ(a.wNibbles, b.wNibbles);
    EXPECT_EQ(a.xNibbles, b.xNibbles);
}

/**
 * Generation-vs-manual-loop stats identity covers compute and
 * activation traffic. Weight-side nibbles are EXCLUDED: the weight
 * operand is read once per engine call, so a chunked prefill (3 calls)
 * legitimately moves more weight traffic than the manual loop's single
 * whole-prompt call - that is the cost chunking pays for fairness, not
 * a computation difference.
 */
void
expectComputeStatsEqual(const AqsStats &a, const AqsStats &b)
{
    EXPECT_EQ(a.denseOuterProducts, b.denseOuterProducts);
    EXPECT_EQ(a.executedOuterProducts, b.executedOuterProducts);
    EXPECT_EQ(a.skippedOuterProducts, b.skippedOuterProducts);
    EXPECT_EQ(a.mults, b.mults);
    EXPECT_EQ(a.adds, b.adds);
    EXPECT_EQ(a.xNibbles, b.xNibbles);
}

/** The reference: whole prompt + one infer() per decode step. */
struct ManualGen
{
    MatrixF prefill;
    MatrixF output;
    AqsStats stats;
};

ManualGen
manualGenerate(Session &session, const CompiledModel &model,
               const MatrixF &prompt, std::size_t steps,
               std::uint64_t seed)
{
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    serve::TokenSampler sampler(seed);
    ManualGen mg;
    const InferenceResult pre = session.infer(model, prompt);
    mg.prefill = pre.output;
    mg.stats += pre.stats;
    mg.output = MatrixF(model.outputFeatures(), steps * v);
    MatrixF prev = mg.prefill;
    for (std::size_t step = 0; step < steps; ++step) {
        MatrixF x = sampler.next(prev, model.inputFeatures(), v);
        const InferenceResult r = session.infer(model, std::move(x));
        for (std::size_t row = 0; row < r.output.rows(); ++row) {
            const auto src = r.output.row(row);
            std::copy(src.begin(), src.end(),
                      mg.output.row(row).begin() +
                          static_cast<std::ptrdiff_t>(step * v));
        }
        mg.stats += r.stats;
        prev = r.output;
    }
    return mg;
}

Session
soloSession(Runtime &rt)
{
    SessionOptions opts;
    opts.batchWindow = 1;
    opts.batchDeadlineMs = 0.0;
    opts.workers = 1;
    return rt.createSession(opts);
}

/**
 * Identity across the scheduling sweep: a chunked and a whole-prompt
 * prefill, 1 and 2 workers, shallow and every-boundary admission, continuous
 * on and off - all byte-identical to the manual per-step loop, with
 * exact stats folds and the pinned chunk count.
 */
TEST(Generation, MatchesManualLoopAcrossPolicyWorkersAndAdmission)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const MatrixF prompt =
        makePrompt(model.inputFeatures(), 8 * v, 0xfeed);
    const std::size_t steps = 6;

    Session solo = soloSession(rt);
    const ManualGen ref =
        manualGenerate(solo, model, prompt, steps, 0x5eed);

    struct Sweep
    {
        std::size_t chunkGroups; ///< 8 = the whole prompt in one chunk
        int workers;
        int admitLayer; ///< 0 = default (1); big = every boundary
        bool continuous;
    };
    const std::vector<Sweep> sweeps = {
        {3, 1, 0, true}, {3, 2, 99, true}, {3, 1, 2, true},
        {8, 1, 0, true}, {8, 2, 99, true}, {3, 1, 0, false},
        {8, 1, 0, false},
    };
    for (const Sweep &sw : sweeps) {
        SessionOptions opts;
        opts.batchWindow = 2;
        opts.batchDeadlineMs = 0.0;
        opts.workers = sw.workers;
        opts.continuous = sw.continuous;
        opts.maxAdmissionLayer = sw.admitLayer;
        Session session = rt.createSession(opts);

        GenerationRequest req;
        req.prompt = prompt;
        req.maxSteps = steps;
        req.samplerSeed = 0x5eed;
        req.prefillChunkGroups = sw.chunkGroups; // 3 -> 3+3+2
        const GenerationResult res =
            session.generate(model, req).get();

        EXPECT_TRUE(res.prefillOutput == ref.prefill)
            << "chunkGroups=" << sw.chunkGroups
            << " workers=" << sw.workers;
        EXPECT_TRUE(res.output == ref.output)
            << "chunkGroups=" << sw.chunkGroups
            << " workers=" << sw.workers;
        expectComputeStatsEqual(res.stats, ref.stats);
        EXPECT_EQ(res.steps, steps);
        EXPECT_EQ(res.interTokenMs.size(), steps - 1);

        std::size_t prefill_meta = 0;
        for (const GenerationStepMeta &m : res.stepMeta)
            if (m.phase == GenerationPhase::Prefill)
                ++prefill_meta;
        // The 8-group prompt goes down as 3+3+2, or whole.
        EXPECT_EQ(prefill_meta, sw.chunkGroups == 3 ? 3u : 1u);
        EXPECT_EQ(res.stepMeta.size(), prefill_meta + steps);
        EXPECT_GT(res.arenaBytes, 0u);
    }
}

TEST(Generation, IdentityHoldsAcrossIsaLevelsAndPoolWidths)
{
    PoolGuard pool_guard;
    IsaGuard isa_guard;
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const MatrixF prompt =
        makePrompt(model.inputFeatures(), 4 * v, 0xabcd);

    Session solo = soloSession(rt);
    const ManualGen ref = manualGenerate(solo, model, prompt, 4, 42);

    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        for (int threads : {1, 4}) {
            setParallelThreads(threads);
            SessionOptions opts;
            opts.batchWindow = 2;
            opts.batchDeadlineMs = 0.0;
            opts.workers = 2;
            opts.continuous = true;
            Session session = rt.createSession(opts);
            GenerationRequest req;
            req.prompt = prompt;
            req.maxSteps = 4;
            req.samplerSeed = 42;
            req.prefillChunkGroups = 2;
            const GenerationResult res =
                session.generate(model, req).get();
            EXPECT_TRUE(res.prefillOutput == ref.prefill)
                << "isa=" << toString(isa) << " threads=" << threads;
            EXPECT_TRUE(res.output == ref.output)
                << "isa=" << toString(isa) << " threads=" << threads;
        }
    }
}

/** Concurrent generations on one session, each against its own ref. */
TEST(Generation, ConcurrentGenerationsStayIndependent)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);

    Session solo = soloSession(rt);
    struct Job
    {
        MatrixF prompt;
        std::uint64_t seed;
        std::size_t steps;
        ManualGen ref;
    };
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < 3; ++i) {
        Job j;
        j.prompt =
            makePrompt(model.inputFeatures(), (2 + i) * v, 100 + i);
        j.seed = 7000 + i;
        j.steps = 3 + i;
        j.ref = manualGenerate(solo, model, j.prompt, j.steps, j.seed);
        jobs.push_back(std::move(j));
    }

    SessionOptions opts;
    opts.batchWindow = 4;
    opts.batchDeadlineMs = 0.0;
    opts.workers = 2;
    opts.continuous = true;
    Session session = rt.createSession(opts);
    std::vector<std::future<GenerationResult>> futures;
    for (const Job &j : jobs) {
        GenerationRequest req;
        req.prompt = j.prompt;
        req.maxSteps = j.steps;
        req.samplerSeed = j.seed;
        req.prefillChunkGroups = 2;
        futures.push_back(session.generate(model, req));
    }
    std::uint64_t decode_cols = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const GenerationResult res = futures[i].get();
        EXPECT_TRUE(res.prefillOutput == jobs[i].ref.prefill)
            << "generation " << i;
        EXPECT_TRUE(res.output == jobs[i].ref.output)
            << "generation " << i;
        decode_cols += res.steps * v;
    }
    session.drain();
    const GenerationStats gs = session.generationStats();
    EXPECT_EQ(gs.generations, jobs.size());
    EXPECT_EQ(gs.failed, 0u);
    EXPECT_EQ(gs.decodeColumns, decode_cols);
    EXPECT_EQ(gs.arenaBytesLive, 0u);
    EXPECT_GT(gs.arenaBytesRetired, 0u);
    EXPECT_GE(gs.p99TtftMs, gs.p50TtftMs);
    EXPECT_GE(gs.p99InterTokenMs, gs.p50InterTokenMs);
    EXPECT_GT(gs.tokensPerSecond, 0.0);
}

/**
 * The engine-level phase schedule, pinned: on a paused single-worker
 * window-1 engine, Decode submissions are served BEFORE Prefill
 * submissions queued ahead of them - urgent before FIFO, FIFO within
 * each - and every result echoes its phase.
 */
TEST(Generation, DecodePhaseOvertakesQueuedPrefillDeterministically)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::shared_ptr<const serve::ServedModel> sm = model.shared();
    const std::size_t v = static_cast<std::size_t>(model.options().v);

    serve::EngineOptions eo;
    eo.batchWindow = 1;
    eo.batchDeadlineMs = 0.0;
    eo.workers = 1;
    eo.startPaused = true;
    serve::InferenceEngine engine(eo);

    const MatrixF x = makePrompt(model.inputFeatures(), v, 0xbeef);
    const auto submit = [&](serve::RequestPhase phase) {
        serve::SubmitExtras ex;
        ex.phase = phase;
        return engine.submit(sm, MatrixF(x), std::move(ex));
    };
    auto p1 = submit(serve::RequestPhase::Prefill);
    auto p2 = submit(serve::RequestPhase::Prefill);
    auto d1 = submit(serve::RequestPhase::Decode);
    auto d2 = submit(serve::RequestPhase::Decode);
    engine.start();

    const serve::RequestResult rd1 = d1.get();
    const serve::RequestResult rd2 = d2.get();
    const serve::RequestResult rp1 = p1.get();
    const serve::RequestResult rp2 = p2.get();
    // Decode submissions arrived LAST but are served first.
    EXPECT_EQ(rd1.batchSeq, 0u);
    EXPECT_EQ(rd2.batchSeq, 1u);
    EXPECT_EQ(rp1.batchSeq, 2u);
    EXPECT_EQ(rp2.batchSeq, 3u);
    EXPECT_EQ(rd1.phase, serve::RequestPhase::Decode);
    EXPECT_EQ(rd2.phase, serve::RequestPhase::Decode);
    EXPECT_EQ(rp1.phase, serve::RequestPhase::Prefill);
    EXPECT_EQ(rp2.phase, serve::RequestPhase::Prefill);
    // Service order never changes bytes: same input, same output.
    EXPECT_TRUE(rd1.output == rp1.output);
    EXPECT_TRUE(rd2.output == rp2.output);
    expectStatsEqual(rd1.stats, rp1.stats);

    const serve::EngineStats s = engine.stats();
    EXPECT_EQ(s.requests, 4u);
    EXPECT_EQ(s.prefillRequests, 2u);
    EXPECT_EQ(s.decodeRequests, 2u);
    EXPECT_EQ(s.batches, 4u);
}

/**
 * The scheduler's half of phase-aware admission: a generation's decode
 * steps ride the engine's urgent queue, so they overtake Bulk work
 * queued ahead of them. Right before each decode step is submitted
 * (inside the previous step's callback) three whole-prompt Bulk
 * requests are queued. The single worker takes the first and stalls
 * in it (stepHook) long enough for the scheduler to submit the decode
 * step, which must then run before the other two. A decode step
 * tagged like ordinary FIFO work would run after all three.
 */
TEST(Generation, DecodeStepsOvertakeQueuedBulkWork)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);

    std::atomic<bool> stall_next{false};
    SessionOptions opts;
    opts.batchWindow = 1;
    opts.batchDeadlineMs = 0.0;
    opts.workers = 1;
    opts.continuous = false; // one request per cohort, no splicing
    opts.stepHook = [&stall_next](std::size_t layer) {
        if (layer == 0 && stall_next.exchange(false))
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
    };
    Session session = rt.createSession(opts);

    const MatrixF bulk = makePrompt(model.inputFeatures(), 8 * v, 0xb0b);
    std::vector<std::future<InferenceResult>> queued;
    GenerationRequest req;
    req.prompt = makePrompt(model.inputFeatures(), v, 0xa11);
    req.maxSteps = 2;
    req.onStep = [&](const GenerationStepView &view) {
        // After the (single) prefill chunk and after decode step 0.
        if (view.index != 0)
            return;
        stall_next = true;
        for (int i = 0; i < 3; ++i)
            queued.push_back(session.submit(model, bulk));
    };
    const GenerationResult res = session.generate(model, req).get();
    ASSERT_EQ(queued.size(), 6u);
    std::vector<std::uint64_t> bulk_seq;
    for (auto &f : queued)
        bulk_seq.push_back(f.get().batchSeq);

    std::size_t decode = 0;
    for (const GenerationStepMeta &m : res.stepMeta) {
        if (m.phase != GenerationPhase::Decode)
            continue;
        EXPECT_LT(m.batchSeq, bulk_seq[3 * decode + 1])
            << "decode step " << decode << " queued behind Bulk work";
        EXPECT_LT(m.batchSeq, bulk_seq[3 * decode + 2])
            << "decode step " << decode << " queued behind Bulk work";
        ++decode;
    }
    EXPECT_EQ(decode, 2u);
}

/**
 * The fairness contract: a 64-group prefill (8 chunks of 8) admitted
 * behind a RUNNING decode stream may never delay it by more than one
 * chunk - consecutive decode cohorts of the running generation are
 * separated by at most one other cohort in the engine's batchSeq
 * sequence. Byte identity holds for both generations throughout.
 */
TEST(Generation, PrefillChunkingCannotStallARunningDecodeStream)
{
    Runtime rt;
    const CompiledModel model = rt.compile(fairSpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const MatrixF prompt_a =
        makePrompt(model.inputFeatures(), v, 0xaaaa);
    const MatrixF prompt_b =
        makePrompt(model.inputFeatures(), 64 * v, 0xbbbb);

    Session solo = soloSession(rt);
    const ManualGen ref_a =
        manualGenerate(solo, model, prompt_a, 16, 0xa);
    const ManualGen ref_b = manualGenerate(solo, model, prompt_b, 1, 0xb);

    SessionOptions opts;
    opts.batchWindow = 1;
    opts.batchDeadlineMs = 0.0;
    opts.workers = 1;
    opts.continuous = false; // pure cohort serialization
    Session session = rt.createSession(opts);

    std::promise<void> first_decode;
    auto fired = std::make_shared<std::atomic<bool>>(false);
    GenerationRequest ra;
    ra.prompt = prompt_a;
    ra.maxSteps = 16;
    ra.samplerSeed = 0xa;
    ra.onStep = [&first_decode,
                 fired](const GenerationStepView &view) {
        if (view.phase == GenerationPhase::Decode && view.index == 0 &&
            !fired->exchange(true))
            first_decode.set_value();
    };
    std::future<GenerationResult> fa = session.generate(model, ra);
    // B's long prefill starts only once A's decode stream is running.
    first_decode.get_future().wait();

    GenerationRequest rb;
    rb.prompt = prompt_b;
    rb.maxSteps = 1;
    rb.samplerSeed = 0xb;
    rb.prefillChunkGroups = 8;
    std::future<GenerationResult> fb = session.generate(model, rb);

    const GenerationResult ga = fa.get();
    const GenerationResult gb = fb.get();
    EXPECT_TRUE(ga.output == ref_a.output);
    EXPECT_TRUE(ga.prefillOutput == ref_a.prefill);
    EXPECT_TRUE(gb.prefillOutput == ref_b.prefill);
    EXPECT_TRUE(gb.output == ref_b.output);

    std::size_t b_chunks = 0;
    for (const GenerationStepMeta &m : gb.stepMeta)
        if (m.phase == GenerationPhase::Prefill)
            ++b_chunks;
    EXPECT_EQ(b_chunks, 8u); // 64 groups / 8-group chunks

    // A's consecutive decode cohorts: at most ONE foreign cohort (one
    // bounded prefill chunk) may run between them.
    std::vector<std::uint64_t> decode_seq;
    for (const GenerationStepMeta &m : ga.stepMeta)
        if (m.phase == GenerationPhase::Decode)
            decode_seq.push_back(m.batchSeq);
    ASSERT_EQ(decode_seq.size(), 16u);
    for (std::size_t i = 1; i < decode_seq.size(); ++i)
        EXPECT_LE(decode_seq[i] - decode_seq[i - 1], 2u)
            << "decode step " << i
            << " was stalled by more than one prefill chunk";
}

/** Same seed -> identical chain; different seed -> different chain. */
TEST(Generation, SeededSamplerDeterminism)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const MatrixF prompt =
        makePrompt(model.inputFeatures(), 2 * v, 0x1111);

    SessionOptions opts;
    opts.workers = 1;
    opts.batchWindow = 1;
    opts.batchDeadlineMs = 0.0;
    Session session = rt.createSession(opts);

    GenerationRequest req;
    req.prompt = prompt;
    req.maxSteps = 4;
    req.samplerSeed = 0xd00d;
    const GenerationResult r1 = session.generate(model, req).get();
    const GenerationResult r2 = session.generate(model, req).get();
    EXPECT_TRUE(r1.output == r2.output);
    EXPECT_TRUE(r1.prefillOutput == r2.prefillOutput);

    req.samplerSeed = 0xd00e;
    const GenerationResult r3 = session.generate(model, req).get();
    EXPECT_TRUE(r3.prefillOutput == r1.prefillOutput)
        << "prefill does not depend on the sampler seed";
    EXPECT_FALSE(r3.output == r1.output);
}

/**
 * Mid-generation drain: exactly one terminal per generation, and
 * generate() while a drain is in progress is rejected through the
 * future (the engine's reject-or-complete contract, one level up).
 */
TEST(Generation, DrainDeliversOneTerminalAndRejectsConcurrentGenerate)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const MatrixF prompt = makePrompt(model.inputFeatures(), v, 0x2222);

    Session solo = soloSession(rt);
    const ManualGen ref = manualGenerate(solo, model, prompt, 2, 9);

    struct Gate
    {
        std::mutex m;
        std::condition_variable cv;
        bool open = false;
    };
    auto gate = std::make_shared<Gate>();
    SessionOptions opts;
    opts.workers = 1;
    opts.batchWindow = 1;
    opts.batchDeadlineMs = 0.0;
    opts.stepHook = [gate](std::size_t layer) {
        if (layer != 0)
            return;
        std::unique_lock<std::mutex> lock(gate->m);
        gate->cv.wait(lock, [&] { return gate->open; });
    };
    Session session = rt.createSession(opts);

    GenerationRequest req;
    req.prompt = prompt;
    req.maxSteps = 2;
    req.samplerSeed = 9;
    std::future<GenerationResult> fa = session.generate(model, req);

    std::thread drainer([&session] { session.drain(); });
    // Let the drain enter its wait (the generation is held live by
    // the closed gate), then race a generate() against it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::future<GenerationResult> fb = session.generate(model, req);
    EXPECT_THROW(fb.get(), std::runtime_error);

    {
        std::lock_guard<std::mutex> lock(gate->m);
        gate->open = true;
    }
    gate->cv.notify_all();
    drainer.join();

    const GenerationResult ga = fa.get();
    EXPECT_EQ(ga.steps, 2u);
    EXPECT_TRUE(ga.output == ref.output);
    const GenerationStats gs = session.generationStats();
    EXPECT_EQ(gs.generations, 1u);
    EXPECT_EQ(gs.arenaBytesLive, 0u);
}

/** Malformed requests reject through the future, typed. */
TEST(Generation, MalformedRequestsRejectThroughTheFuture)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    Session session = rt.createSession({});

    GenerationRequest req;
    req.prompt = makePrompt(model.inputFeatures(), v, 1);
    req.maxSteps = 0; // zero step budget
    EXPECT_THROW(session.generate(model, req).get(),
                 std::invalid_argument);

    req.maxSteps = 2;
    req.prompt = makePrompt(model.inputFeatures() + 1, v, 1);
    EXPECT_THROW(session.generate(model, req).get(),
                 std::invalid_argument);

    req.prompt = makePrompt(model.inputFeatures(), v + 1, 1);
    EXPECT_THROW(session.generate(model, req).get(),
                 std::invalid_argument);

    serve::InferenceEngine engine;
    serve::GenerationScheduler sched(engine);
    req.prompt = makePrompt(model.inputFeatures(), v, 1);
    EXPECT_THROW(sched.generate(nullptr, req).get(),
                 std::invalid_argument);
}

/** The tile-blocked adaptFeatures rewrite == the modulo reference. */
TEST(Generation, AdaptFeaturesTileRewriteMatchesModuloReference)
{
    Rng rng(77);
    struct Shape
    {
        std::size_t rows, cols, features;
    };
    const std::vector<Shape> shapes = {
        {8, 4, 8},   // identity
        {8, 4, 20},  // grow, non-multiple tail
        {8, 4, 16},  // grow, exact multiple
        {16, 4, 6},  // shrink
        {5, 3, 17},  // odd everything
    };
    for (const Shape &sh : shapes) {
        MatrixF y(sh.rows, sh.cols);
        for (auto &val : y.data())
            val = static_cast<float>(rng.gaussian(0.0, 1.0));
        const MatrixF got =
            serve::ServedModel::adaptFeatures(MatrixF(y), sh.features);
        ASSERT_EQ(got.rows(), sh.features);
        ASSERT_EQ(got.cols(), sh.cols);
        for (std::size_t r = 0; r < sh.features; ++r)
            for (std::size_t c = 0; c < sh.cols; ++c)
                EXPECT_EQ(got(r, c), y(r % sh.rows, c))
                    << "rows=" << sh.rows << " features=" << sh.features
                    << " at (" << r << "," << c << ")";
    }
}

/**
 * SubmitExtras::prepared is used verbatim and bit-exact; onReady fires
 * exactly once AFTER the promise resolves - on success, on a
 * mismatched prepared operand, and on a synchronous rejection.
 */
TEST(Generation, PreparedOperandSubmitIsBitExactAndOnReadyFiresOnce)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::shared_ptr<const serve::ServedModel> sm = model.shared();
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const MatrixF x = makePrompt(model.inputFeatures(), v, 0x3333);

    serve::EngineOptions eo;
    eo.workers = 1;
    eo.batchWindow = 1;
    eo.batchDeadlineMs = 0.0;
    serve::InferenceEngine engine(eo);
    const serve::RequestResult plain =
        engine.submit(sm, MatrixF(x)).get();

    const auto await_fired = [](const std::atomic<int> &fired) {
        for (int spin = 0; spin < 2000 && fired.load() == 0; ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    std::atomic<int> fired{0};
    serve::SubmitExtras ex;
    ex.phase = serve::RequestPhase::Decode;
    ex.prepared = std::make_shared<const ActivationOperand>(
        sm->prepareInput(x));
    ex.onReady = [&fired] { ++fired; };
    const serve::RequestResult r =
        engine.submit(sm, MatrixF(x), std::move(ex)).get();
    EXPECT_TRUE(r.output == plain.output);
    expectStatsEqual(r.stats, plain.stats);
    await_fired(fired);
    EXPECT_EQ(fired.load(), 1);

    // A prepared operand whose column count mismatches the input is a
    // malformed request; the hook still fires exactly once.
    std::atomic<int> fired_bad{0};
    serve::SubmitExtras bad;
    bad.prepared = std::make_shared<const ActivationOperand>(
        sm->prepareInput(makePrompt(model.inputFeatures(), 2 * v, 4)));
    bad.onReady = [&fired_bad] { ++fired_bad; };
    auto fbad = engine.submit(sm, MatrixF(x), std::move(bad));
    EXPECT_THROW(fbad.get(), std::invalid_argument);
    await_fired(fired_bad);
    EXPECT_EQ(fired_bad.load(), 1);

    // Synchronous rejection (wrong feature rows): hook fires too.
    std::atomic<int> fired_rej{0};
    serve::SubmitExtras rej;
    rej.onReady = [&fired_rej] { ++fired_rej; };
    auto frej = engine.submit(
        sm, makePrompt(model.inputFeatures() + 3, v, 5),
        std::move(rej));
    EXPECT_THROW(frej.get(), std::invalid_argument);
    await_fired(fired_rej);
    EXPECT_EQ(fired_rej.load(), 1);
}

/**
 * Fleet-side generation: byte-identical to the Session path at 1 and
 * 2 replicas, every step tagged with its serving model version; an
 * unknown model name throws through the future.
 */
TEST(Generation, FleetGenerationMatchesSessionAtAnyReplicaCount)
{
    Runtime rt;
    const CompiledModel model = rt.compile(tinySpec());
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const MatrixF prompt =
        makePrompt(model.inputFeatures(), 6 * v, 0x4444);

    Session solo = soloSession(rt);
    const ManualGen ref = manualGenerate(solo, model, prompt, 4, 0xf1);

    for (int replicas : {1, 2}) {
        FleetOptions fo;
        fo.replicas = replicas;
        Fleet fleet = rt.createFleet(fo);
        fleet.deploy(model);

        GenerationRequest req;
        req.prompt = prompt;
        req.maxSteps = 4;
        req.samplerSeed = 0xf1;
        req.prefillChunkGroups = 2;
        const GenerationResult res = fleet.generate(model, req).get();
        EXPECT_TRUE(res.prefillOutput == ref.prefill)
            << "replicas=" << replicas;
        EXPECT_TRUE(res.output == ref.output)
            << "replicas=" << replicas;
        expectComputeStatsEqual(res.stats, ref.stats);
        EXPECT_EQ(res.steps, 4u);
        ASSERT_EQ(res.stepMeta.size(), 3u + 4u); // 2+2+2 chunks + steps
        for (const GenerationStepMeta &m : res.stepMeta)
            EXPECT_GE(m.modelVersion, 1u);

        GenerationRequest unknown = req;
        auto fu = fleet.generate("no-such-model", std::move(unknown));
        EXPECT_THROW(fu.get(), std::invalid_argument);
        fleet.drain();
    }
}

} // namespace
} // namespace panacea
