#include "serve/generation/generation.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "serve/fleet.h"
#include "util/logging.h"
#include "util/stats.h"

namespace panacea {
namespace serve {

namespace {

/** TTFT / inter-token percentile rings cover this many recents. */
constexpr std::size_t kGenLatencyWindow = 8192;

double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Copy columns [c0, c1) of `m` into an owned matrix. */
MatrixF
sliceColumns(const MatrixF &m, std::size_t c0, std::size_t c1)
{
    MatrixF out(m.rows(), c1 - c0);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const auto src = m.row(r);
        std::copy(src.begin() + static_cast<std::ptrdiff_t>(c0),
                  src.begin() + static_cast<std::ptrdiff_t>(c1),
                  out.row(r).begin());
    }
    return out;
}

} // namespace

const char *
toString(GenerationPhase phase)
{
    return phase == GenerationPhase::Prefill ? "prefill" : "decode";
}

MatrixF
TokenSampler::next(const float *prev, std::size_t rows, std::size_t cols,
                   std::size_t features, std::size_t v)
{
    panic_if(prev == nullptr || rows == 0 || cols < v,
             "TokenSampler::next needs a previous output of >= v columns");
    const std::size_t base = cols - v;
    MatrixF x(features, v);
    for (std::size_t r = 0; r < features; ++r) {
        const float *src = prev + (r % rows) * cols + base;
        auto dst = x.row(r);
        for (std::size_t c = 0; c < v; ++c)
            dst[c] = 0.5f * src[c] +
                     static_cast<float>(rng_.gaussian(0.2, 1.0));
    }
    return x;
}

MatrixF
TokenSampler::next(const MatrixF &prev, std::size_t features,
                   std::size_t v)
{
    return next(prev.data().data(), prev.rows(), prev.cols(), features,
                v);
}

/**
 * One live generation: the request, its sampler chain position, the
 * arena holding its paged outputs, and the single in-flight engine
 * submission. Touched by the pump thread only (after generate()
 * hands it over).
 */
struct GenerationScheduler::Active
{
    std::uint64_t id = 0;
    std::shared_ptr<const ServedModel> model;
    GenerationRequest req;
    TokenSampler sampler;
    std::promise<GenerationResult> promise;

    std::size_t v = 0;
    std::size_t features = 0; ///< layer-0 input rows (K)
    std::size_t outRows = 0;  ///< final-layer output rows (M)
    std::size_t promptCols = 0;
    std::size_t promptGroups = 0;
    std::size_t chunkGroups = 0; ///< prefill chunk bound (groups)
    std::size_t chunksTotal = 0;
    std::size_t chunksDone = 0;
    std::size_t stepsDone = 0;

    /** Paged decode state: prefill output + one page per step. */
    Arena arena;
    float *prefillOut = nullptr;       ///< outRows x promptCols
    std::vector<float *> stepPages;    ///< outRows x v each

    std::future<RequestResult> inflight;
    bool started = false;
    bool done = false;

    AqsStats stats;
    std::vector<GenerationStepMeta> meta;
    std::vector<float> tokenAtMs; ///< decode completions since start
    std::chrono::steady_clock::time_point startTp;
    double prefillMs = 0.0;

    explicit Active(GenerationRequest r)
        : req(std::move(r)), sampler(req.samplerSeed)
    {}

    double
    sinceStartMs() const
    {
        return msBetween(startTp, std::chrono::steady_clock::now());
    }
};

GenerationScheduler::GenerationScheduler(InferenceEngine &engine)
    : engine_(engine), pump_([this] { pumpLoop(); })
{}

GenerationScheduler::~GenerationScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    pumpCv_.notify_all();
    if (pump_.joinable())
        pump_.join();
}

std::future<GenerationResult>
GenerationScheduler::generate(std::shared_ptr<const ServedModel> model,
                              GenerationRequest req)
{
    auto a = std::make_unique<Active>(std::move(req));
    std::future<GenerationResult> fut = a->promise.get_future();
    const auto reject_arg = [&](std::string why) {
        a->promise.set_exception(std::make_exception_ptr(
            std::invalid_argument(std::move(why))));
        return std::move(fut);
    };
    if (model == nullptr)
        return reject_arg("generate() needs a loaded model");
    if (a->req.maxSteps == 0)
        return reject_arg("generate() needs maxSteps >= 1");
    const std::size_t uv = static_cast<std::size_t>(model->options().v);
    if (a->req.prompt.rows() != model->inputFeatures())
        return reject_arg(
            "prompt rows " + std::to_string(a->req.prompt.rows()) +
            " != model input features " +
            std::to_string(model->inputFeatures()));
    if (a->req.prompt.cols() == 0 || a->req.prompt.cols() % uv != 0)
        return reject_arg("prompt columns " +
                          std::to_string(a->req.prompt.cols()) +
                          " must be a positive multiple of v=" +
                          std::to_string(uv));

    a->model = std::move(model);
    a->v = uv;
    a->features = a->model->inputFeatures();
    a->outRows = a->model->outputFeatures();
    a->promptCols = a->req.prompt.cols();
    a->promptGroups = a->promptCols / uv;
    // Every prefill cohort is bounded to chunkGroups column groups.
    a->chunkGroups = std::min(a->promptGroups,
                              a->req.prefillChunkGroups > 0
                                  ? a->req.prefillChunkGroups
                                  : kDefaultPrefillChunkGroups);
    a->chunksTotal =
        (a->promptGroups + a->chunkGroups - 1) / a->chunkGroups;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            a->promise.set_exception(
                std::make_exception_ptr(std::runtime_error(
                    "generate() after scheduler shutdown began")));
            return fut;
        }
        // Same reject-or-complete contract as the engine's drain():
        // accepting would move the drain's goalposts.
        if (draining_ > 0) {
            a->promise.set_exception(
                std::make_exception_ptr(std::runtime_error(
                    "generate() rejected: drain() in progress")));
            return fut;
        }
        a->id = nextId_++;
        ready_.push_back(a->id); // the start event
        active_.emplace(a->id, std::move(a));
    }
    {
        std::lock_guard<std::mutex> slock(statsMutex_);
        if (!haveFirstStart_) {
            haveFirstStart_ = true;
            firstStartTp_ = std::chrono::steady_clock::now();
        }
    }
    pumpCv_.notify_all();
    return fut;
}

void
GenerationScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    ++draining_;
    drainCv_.wait(lock, [&] { return active_.empty(); });
    --draining_;
}

void
GenerationScheduler::pumpLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        pumpCv_.wait(lock, [&] {
            return !ready_.empty() || (stopping_ && active_.empty());
        });
        if (ready_.empty())
            return; // stopping_ with nothing live
        const std::uint64_t id = ready_.front();
        ready_.pop_front();
        const auto it = active_.find(id);
        if (it == active_.end())
            continue; // event of a generation failed mid-chain
        Active *a = it->second.get();

        // Event handling runs UNLOCKED: it preps operands, invokes
        // user callbacks, and submits into the engine - none of which
        // may hold the scheduler mutex (the engine's onReady hook
        // takes it from worker threads).
        lock.unlock();
        handleEvent(*a);
        lock.lock();
        if (a->done) {
            active_.erase(id);
            drainCv_.notify_all();
        }
    }
}

void
GenerationScheduler::handleEvent(Active &a)
{
    if (!a.started) {
        // The start event: page the prefill output, submit chunk 0.
        a.started = true;
        a.startTp = std::chrono::steady_clock::now();
        const std::size_t bytes =
            a.outRows * a.promptCols * sizeof(float);
        a.prefillOut = reinterpret_cast<float *>(a.arena.alloc(bytes));
        {
            std::lock_guard<std::mutex> slock(statsMutex_);
            arenaLive_ += bytes;
        }
        const std::size_t g1 = std::min(a.promptGroups, a.chunkGroups);
        submitStep(a, sliceColumns(a.req.prompt, 0, g1 * a.v),
                   RequestPhase::Prefill);
        return;
    }
    RequestResult rr;
    try {
        rr = a.inflight.get();
    } catch (...) {
        fail(a, std::current_exception());
        return;
    }
    try {
        if (a.chunksDone < a.chunksTotal)
            handlePrefillChunk(a, std::move(rr));
        else
            handleDecodeStep(a, std::move(rr));
    } catch (...) {
        // A throwing user callback (or copy failure) terminates THIS
        // generation; the scheduler itself keeps pumping.
        fail(a, std::current_exception());
    }
}

void
GenerationScheduler::submitStep(Active &a, MatrixF input,
                                RequestPhase phase)
{
    SubmitExtras ex;
    ex.phase = phase;
    // Decode steps are prepped HERE, on the pump thread, off the
    // engine's cohort critical path - the engine splices the operand
    // verbatim (prepareLayer0Concat) instead of re-prepping the new
    // column. Prefill chunks are left to the engine worker, whose
    // layer-0 prep already overlaps other cohorts' GEMMs.
    if (phase == RequestPhase::Decode)
        ex.prepared = std::make_shared<const ActivationOperand>(
            a.model->prepareInput(input));
    // Notify under the lock: once the pump sees the id it may retire
    // the last generation, and ~GenerationScheduler may destroy
    // pumpCv_; holding mutex_ keeps both waiting until this hook is
    // done with the condition variable.
    ex.onReady = [this, id = a.id] {
        std::lock_guard<std::mutex> lock(mutex_);
        ready_.push_back(id);
        pumpCv_.notify_all();
    };
    a.inflight = engine_.submit(a.model, std::move(input), std::move(ex));
}

void
GenerationScheduler::handlePrefillChunk(Active &a, RequestResult &&rr)
{
    const std::size_t chunk = a.chunksDone;
    const std::size_t c0 = chunk * a.chunkGroups * a.v;
    const std::size_t ccols = rr.output.cols();
    for (std::size_t row = 0; row < a.outRows; ++row) {
        const auto src = rr.output.row(row);
        std::copy(src.begin(), src.end(),
                  a.prefillOut + row * a.promptCols + c0);
    }
    a.stats += rr.stats;
    GenerationStepMeta m;
    m.phase = GenerationPhase::Prefill;
    m.index = chunk;
    m.columns = ccols;
    m.engineId = rr.id;
    m.batchSeq = rr.batchSeq;
    m.admittedAtLayer = rr.admittedAtLayer;
    m.batchSize = rr.batchSize;
    m.latencyMs = rr.latencyMs;
    a.meta.push_back(m);
    ++a.chunksDone;
    {
        std::lock_guard<std::mutex> slock(statsMutex_);
        ++prefillChunks_;
        promptColumns_ += ccols;
    }
    if (a.req.onStep) {
        GenerationStepView view;
        view.generationId = a.id;
        view.phase = GenerationPhase::Prefill;
        view.index = chunk;
        view.stepsTotal = a.req.maxSteps;
        view.output = rr.output.data().data();
        view.rows = a.outRows;
        view.cols = ccols;
        view.sinceStartMs = a.sinceStartMs();
        a.req.onStep(view);
    }
    if (a.chunksDone < a.chunksTotal) {
        const std::size_t g0 = a.chunksDone * a.chunkGroups;
        const std::size_t g1 =
            std::min(a.promptGroups, g0 + a.chunkGroups);
        submitStep(a, sliceColumns(a.req.prompt, g0 * a.v, g1 * a.v),
                   RequestPhase::Prefill);
        return;
    }
    // Prefill complete: the first decode step samples from the LAST v
    // prompt output columns.
    a.prefillMs = a.sinceStartMs();
    MatrixF x = a.sampler.next(a.prefillOut, a.outRows, a.promptCols,
                               a.features, a.v);
    submitStep(a, std::move(x), RequestPhase::Decode);
}

void
GenerationScheduler::handleDecodeStep(Active &a, RequestResult &&rr)
{
    const std::size_t step = a.stepsDone;
    const std::size_t bytes = a.outRows * a.v * sizeof(float);
    float *page = reinterpret_cast<float *>(a.arena.alloc(bytes));
    const std::span<const float> src = rr.output.data();
    std::copy(src.begin(), src.end(), page);
    a.stepPages.push_back(page);
    a.tokenAtMs.push_back(static_cast<float>(a.sinceStartMs()));
    a.stats += rr.stats;
    GenerationStepMeta m;
    m.phase = GenerationPhase::Decode;
    m.index = step;
    m.columns = a.v;
    m.engineId = rr.id;
    m.batchSeq = rr.batchSeq;
    m.admittedAtLayer = rr.admittedAtLayer;
    m.batchSize = rr.batchSize;
    m.latencyMs = rr.latencyMs;
    a.meta.push_back(m);
    ++a.stepsDone;
    {
        std::lock_guard<std::mutex> slock(statsMutex_);
        arenaLive_ += bytes;
        ++decodeSteps_;
        decodeColumns_ += a.v;
        lastDecodeTp_ = std::chrono::steady_clock::now();
    }
    if (a.req.onStep) {
        GenerationStepView view;
        view.generationId = a.id;
        view.phase = GenerationPhase::Decode;
        view.index = step;
        view.stepsTotal = a.req.maxSteps;
        view.output = page;
        view.rows = a.outRows;
        view.cols = a.v;
        view.sinceStartMs = a.sinceStartMs();
        a.req.onStep(view);
    }
    if (a.stepsDone < a.req.maxSteps) {
        MatrixF x =
            a.sampler.next(page, a.outRows, a.v, a.features, a.v);
        submitStep(a, std::move(x), RequestPhase::Decode);
        return;
    }
    finish(a);
}

void
GenerationScheduler::finish(Active &a)
{
    GenerationResult res;
    res.id = a.id;
    res.prefillOutput = MatrixF(a.outRows, a.promptCols);
    std::copy_n(a.prefillOut, a.outRows * a.promptCols,
                res.prefillOutput.data().begin());
    res.output = MatrixF(a.outRows, a.stepsDone * a.v);
    for (std::size_t row = 0; row < a.outRows; ++row) {
        auto dst = res.output.row(row);
        for (std::size_t n = 0; n < a.stepsDone; ++n)
            std::copy_n(a.stepPages[n] + row * a.v, a.v,
                        dst.begin() +
                            static_cast<std::ptrdiff_t>(n * a.v));
    }
    res.steps = a.stepsDone;
    res.stats = a.stats;
    res.prefillMs = a.prefillMs;
    res.ttftMs = a.tokenAtMs.front();
    res.totalMs = a.tokenAtMs.back();
    res.interTokenMs.reserve(a.tokenAtMs.size() - 1);
    for (std::size_t n = 1; n < a.tokenAtMs.size(); ++n)
        res.interTokenMs.push_back(a.tokenAtMs[n] - a.tokenAtMs[n - 1]);
    res.stepMeta = std::move(a.meta);
    res.arenaBytes = a.arena.bytes();

    // Counters fold BEFORE the promise resolves, so stats() already
    // covers a generation whose future just became ready (the
    // engine's convention).
    {
        std::lock_guard<std::mutex> slock(statsMutex_);
        const auto push = [&](std::vector<float> &ring,
                              std::size_t &next, double v) {
            if (ring.size() < kGenLatencyWindow)
                ring.push_back(static_cast<float>(v));
            else
                ring[next % kGenLatencyWindow] = static_cast<float>(v);
            ++next;
        };
        ++generations_;
        push(ttftRing_, ttftNext_, res.ttftMs);
        for (const float gap : res.interTokenMs)
            push(interTokenRing_, interTokenNext_, gap);
        arenaLive_ -= std::min(arenaLive_, a.arena.bytes());
        arenaRetired_ += a.arena.bytes();
    }
    a.promise.set_value(std::move(res));
    a.done = true;
}

void
GenerationScheduler::fail(Active &a, std::exception_ptr exc)
{
    {
        std::lock_guard<std::mutex> slock(statsMutex_);
        ++failed_;
        arenaLive_ -= std::min(arenaLive_, a.arena.bytes());
        arenaRetired_ += a.arena.bytes();
    }
    a.promise.set_exception(std::move(exc));
    a.done = true;
}

GenerationStats
GenerationScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    panic_if(ttftRing_.size() > kGenLatencyWindow ||
                 interTokenRing_.size() > kGenLatencyWindow,
             "generation percentile ring exceeds its window");
    GenerationStats s;
    s.generations = generations_;
    s.failed = failed_;
    s.prefillChunks = prefillChunks_;
    s.decodeSteps = decodeSteps_;
    s.promptColumns = promptColumns_;
    s.decodeColumns = decodeColumns_;
    if (haveFirstStart_ && decodeColumns_ > 0) {
        const double secs =
            msBetween(firstStartTp_, lastDecodeTp_) / 1000.0;
        if (secs > 0.0)
            s.tokensPerSecond =
                static_cast<double>(decodeColumns_) / secs;
    }
    if (!ttftRing_.empty()) {
        s.p50TtftMs = percentile(ttftRing_, 50.0);
        s.p99TtftMs = percentile(ttftRing_, 99.0);
    }
    if (!interTokenRing_.empty()) {
        s.p50InterTokenMs = percentile(interTokenRing_, 50.0);
        s.p99InterTokenMs = percentile(interTokenRing_, 99.0);
    }
    s.arenaBytesLive = arenaLive_;
    s.arenaBytesRetired = arenaRetired_;
    return s;
}

GenerationResult
generateOverRouter(ReplicaRouter &router, const std::string &model_name,
                   GenerationRequest req)
{
    const std::shared_ptr<const ServedModel> model =
        router.deployedModel(model_name);
    if (model == nullptr)
        throw std::invalid_argument(
            "generateOverRouter: unknown model '" + model_name + "'");
    if (req.maxSteps == 0)
        throw std::invalid_argument(
            "generateOverRouter needs maxSteps >= 1");
    const std::size_t v = static_cast<std::size_t>(model->options().v);
    if (req.prompt.rows() != model->inputFeatures() ||
        req.prompt.cols() == 0 || req.prompt.cols() % v != 0)
        throw std::invalid_argument(
            "generateOverRouter: malformed prompt " +
            std::to_string(req.prompt.rows()) + "x" +
            std::to_string(req.prompt.cols()));

    const std::size_t features = model->inputFeatures();
    const std::size_t out_rows = model->outputFeatures();
    const std::size_t prompt_cols = req.prompt.cols();
    const std::size_t prompt_groups = prompt_cols / v;
    const std::size_t chunk_groups =
        std::min(prompt_groups, req.prefillChunkGroups > 0
                                    ? req.prefillChunkGroups
                                    : kDefaultPrefillChunkGroups);

    const auto t0 = std::chrono::steady_clock::now();
    const auto since_ms = [&t0] {
        return msBetween(t0, std::chrono::steady_clock::now());
    };
    // One submission at a time, fleet-terminal checked per step: a
    // typed rejection (shed / quarantine) aborts the generation.
    const auto run_step = [&](MatrixF input,
                              RequestPhase phase) -> FleetResult {
        std::future<FleetResult> fut =
            router.submit(model_name, std::move(input), phase);
        FleetResult fr = fut.get();
        if (fr.outcome != FleetOutcome::Completed)
            throw std::runtime_error(
                "generateOverRouter: step rejected: " +
                fr.rejectReason);
        return fr;
    };
    const auto push_meta = [](GenerationResult &res,
                              GenerationPhase phase, std::size_t index,
                              const FleetResult &fr) {
        GenerationStepMeta m;
        m.phase = phase;
        m.index = index;
        m.columns = fr.result.output.cols();
        m.engineId = fr.result.id;
        m.batchSeq = fr.result.batchSeq;
        m.admittedAtLayer = fr.result.admittedAtLayer;
        m.batchSize = fr.result.batchSize;
        m.modelVersion = fr.modelVersion;
        m.latencyMs = fr.result.latencyMs;
        res.stepMeta.push_back(m);
    };

    GenerationResult res;
    TokenSampler sampler(req.samplerSeed);
    res.prefillOutput = MatrixF(out_rows, prompt_cols);
    for (std::size_t g0 = 0, chunk = 0; g0 < prompt_groups;
         g0 += chunk_groups, ++chunk) {
        const std::size_t g1 =
            std::min(prompt_groups, g0 + chunk_groups);
        FleetResult fr =
            run_step(sliceColumns(req.prompt, g0 * v, g1 * v),
                     RequestPhase::Prefill);
        for (std::size_t row = 0; row < out_rows; ++row) {
            const auto src = fr.result.output.row(row);
            std::copy(src.begin(), src.end(),
                      res.prefillOutput.row(row).begin() +
                          static_cast<std::ptrdiff_t>(g0 * v));
        }
        res.stats += fr.result.stats;
        push_meta(res, GenerationPhase::Prefill, chunk, fr);
    }
    res.prefillMs = since_ms();

    res.output = MatrixF(out_rows, req.maxSteps * v);
    MatrixF prev; ///< previous DECODE output (step 0 reads the prefill)
    std::vector<float> token_at;
    token_at.reserve(req.maxSteps);
    for (std::size_t step = 0; step < req.maxSteps; ++step) {
        MatrixF x = step == 0
                        ? sampler.next(res.prefillOutput, features, v)
                        : sampler.next(prev, features, v);
        FleetResult fr = run_step(std::move(x), RequestPhase::Decode);
        token_at.push_back(static_cast<float>(since_ms()));
        for (std::size_t row = 0; row < out_rows; ++row) {
            const auto src = fr.result.output.row(row);
            std::copy(src.begin(), src.end(),
                      res.output.row(row).begin() +
                          static_cast<std::ptrdiff_t>(step * v));
        }
        res.stats += fr.result.stats;
        push_meta(res, GenerationPhase::Decode, step, fr);
        if (req.onStep) {
            GenerationStepView view;
            view.phase = GenerationPhase::Decode;
            view.index = step;
            view.stepsTotal = req.maxSteps;
            view.output = fr.result.output.data().data();
            view.rows = out_rows;
            view.cols = v;
            view.sinceStartMs = since_ms();
            req.onStep(view);
        }
        prev = std::move(fr.result.output);
    }
    res.steps = req.maxSteps;
    res.ttftMs = token_at.front();
    res.totalMs = token_at.back();
    res.interTokenMs.reserve(token_at.size() - 1);
    for (std::size_t n = 1; n < token_at.size(); ++n)
        res.interTokenMs.push_back(token_at[n] - token_at[n - 1]);
    return res;
}

} // namespace serve
} // namespace panacea
