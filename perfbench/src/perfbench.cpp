/**
 * @file
 * The serving benchmark: three workloads driven through the public API
 * (Runtime, Session::submit, Session::generate, Fleet::submit), each
 * checked bit-exact against a solo reference, printing every metric by
 * name with its unit. See perfbench/README.md for the workloads, the
 * metric -> layer -> end-to-end table and the noise rules.
 *
 *   perfbench --workload chat_decode|prefill_offline|fleet_mixed
 *             --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * Untraced (--trace 0): set-up, warm-up, one timed phase; the last
 * stdout line is {"correct","attempted","failed","metrics"} with the
 * end-to-end metrics. Traced (--trace 1): an untraced and a traced
 * timed phase of S/2 each (their end-to-end ratio is the tracing
 * overhead), then a replay of the run's cohorts through each layer's
 * public functions; the result line carries the per-layer metrics and
 * DIR/trace_<workload>_<seed>.json holds the spans.
 *
 * Exit code: 0 when every checked output matched its reference and no
 * request ended in an error, 1 otherwise (a shed only counts as a
 * failed operation), 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "json_out.h"
#include "trace.h"

#include "core/kernel_cost_model.h"
#include "panacea/core.h"
#include "panacea/models.h"
#include "panacea/runtime.h"
#include "panacea/session.h"
#include "panacea/util.h"

using namespace panacea;
using namespace perfbench;
using panacea::serve::ServedModel;

namespace {

// ---------------------------------------------------------------------
// Fixed workload parameters. Everything the library sees is derived
// from these and --seed; nothing is scaled by the host's own speed.
// ---------------------------------------------------------------------

/** Pinned execution environment (set through options, never env). */
constexpr int kPoolWidth = 2;
constexpr int kEngineWorkers = 1;
constexpr int kFleetReplicas = 2;
constexpr const char *kStreamPolicy = "measured";

/** chat_decode: closed loop of logical clients, moving in waves. */
constexpr int kChatClients = 8;
constexpr std::size_t kChatMinGroups = 2;
constexpr std::size_t kChatMaxGroups = 4;
constexpr std::size_t kChatSteps = 32;
/** Nominal wave length: a timed phase of S seconds runs S / this many
 *  waves (a fixed count, whatever the program's speed). */
constexpr double kChatWaveS = 3.3;

/** prefill_offline: fixed prompt set queued at t=0 per round. */
constexpr std::size_t kPrefillGroups = 64;
constexpr std::size_t kPrefillPrompts = 2;
/** Nominal round length (S / this many rounds, as for chat waves). */
constexpr double kPrefillRoundS = 3.0;

/** fleet_mixed: open loop at a fixed absolute rate. */
constexpr double kFleetRatePerS = 30.0;
constexpr double kFleetWarmupS = 2.0;
constexpr std::size_t kFleetQueueCapColumns = 2048;
constexpr std::size_t kFleetEngineDepthColumns = 256;

/** SLO limits per request class (due -> terminal / first output). */
constexpr double kChatTtftSloMs = 1000.0;
constexpr double kPrefillTtftSloMs = 20000.0;
constexpr double kFleetShortSloMs = 150.0;
constexpr double kFleetLongSloMs = 600.0;

/** Whole generations per run compared with a solo reference (the
 *  one-shot workloads check one prompt, or one short + one long). */
constexpr std::size_t kChatCheckSample = 1;

enum class Kind
{
    Chat,
    Prefill,
    Fleet,
};

struct Options
{
    std::string workload;
    Kind kind = Kind::Chat;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build";
};

/** Segments of a timed phase: seconds / nominal segment length,
 *  rounded, at least one. Fixed by the workload, not by speed. */
int
segmentCount(double seconds, double nominal_s)
{
    return std::max(1, static_cast<int>(std::lround(seconds / nominal_s)));
}

double
secondsSince(Tick t)
{
    return msBetween(t, Clock::now()) / 1000.0;
}

MatrixF
makeInput(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    MatrixF x(rows, cols);
    for (float &v : x.data())
        v = static_cast<float>(rng.gaussian(0.2, 1.0));
    return x;
}

bool
sameBytes(const MatrixF &a, const MatrixF &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

/** 50 * stream_ps / gather_ps of the active tier's pass4 kernels: the
 *  dense-step percentage above which a pass streams. */
double
streamThresholdPct()
{
    const auto &t = detail::kernelCostTable();
    const auto &e = t.entries[static_cast<std::size_t>(activeIsaLevel())]
                             [static_cast<std::size_t>(
                                 detail::KernelFamily::Pass4)];
    if (!e.measured || e.gather_ps_per_step == 0)
        return 50.0; // the static 2*nk >= kk rule
    return 50.0 * static_cast<double>(e.stream_ps_per_pair) /
           static_cast<double>(e.gather_ps_per_step);
}

// ---------------------------------------------------------------------
// Metric sets
// ---------------------------------------------------------------------

/** Ordered name -> (value, unit). */
struct MetricSet
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, {value, unit}});
    }

    JsonObject
    json() const
    {
        JsonObject o;
        for (const auto &[name, vu] : items)
            o.obj(name, JsonObject().num("value", vu.first)
                            .str("unit", vu.second));
        return o;
    }

    double
    get(const std::string &name) const
    {
        for (const auto &[n, vu] : items)
            if (n == name)
                return vu.first;
        return 0.0;
    }
};

/** Operation accounting of a phase. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    /** Wrong outputs and requests that ended in an error (a shed is a
     *  failure, not an error). */
    std::uint64_t broken = 0;

    void
    merge(const Ops &o)
    {
        attempted += o.attempted;
        completed += o.completed;
        failed += o.failed;
        broken += o.broken;
    }
};

// ---------------------------------------------------------------------
// Set-up: Runtime -> calibration -> compile -> session/fleet -> first
// request, repeated setupReps() times (median reported).
// ---------------------------------------------------------------------

/** One set-up's objects; members are destroyed in reverse order, so
 *  the session and fleet go before the Runtime whose cache they use. */
struct Stack
{
    std::unique_ptr<Runtime> rt;
    CompiledModel model;
    Session session;
    Fleet fleet;

    /** Release everything, serving surfaces first. */
    void
    tearDown()
    {
        fleet = Fleet{};
        session = Session{};
        model = CompiledModel{};
        rt.reset();
    }
};

struct SetupSample
{
    double totalS = 0.0;
    double calibrationMs = 0.0;
    double compileMs = 0.0;
    double firstRequestMs = 0.0;
    double thresholdPct = 0.0;
};

/** Set-up repetitions per run; setup_s is their median. A llama32_1b
 *  set-up takes about 4 s, the other two about 1 s. */
int
setupReps(Kind kind)
{
    return kind == Kind::Prefill ? 3 : 7;
}

ModelSpec
modelFor(Kind kind)
{
    switch (kind) {
    case Kind::Chat:
        return opt350m();
    case Kind::Prefill:
        return llama32_1b();
    case Kind::Fleet:
        return bertBase();
    }
    return opt350m();
}

RuntimeOptions
pinnedRuntimeOptions()
{
    RuntimeOptions ro;
    ro.isa = toString(supportedIsaCap()); // the host's best tier
    ro.streamPolicy = kStreamPolicy;      // the library default
    ro.threads = kPoolWidth;
    ro.cacheDir = "";                     // no disk tier
    ro.useGlobalCache = false;
    ro.replicas = kFleetReplicas;
    return ro;
}

SessionOptions
servingSessionOptions(Kind kind)
{
    SessionOptions so;
    so.workers = kEngineWorkers;
    so.batchWindow = kind == Kind::Prefill ? 2 : 8;
    // Prefill: a short fill wait so the prompts queued together at t=0
    // of a round always form one cohort.
    so.batchDeadlineMs = kind == Kind::Fleet ? 0.0 : kind == Kind::Chat ? 0.2 : 5.0;
    so.continuous = kind != Kind::Prefill;
    so.maxInflightColumns = 1024;
    so.maxAdmissionLayer = 1;
    return so;
}

/** The solo reference every output is compared with. */
SessionOptions
soloSessionOptions()
{
    SessionOptions so;
    so.workers = 1;
    so.batchWindow = 1;
    so.batchDeadlineMs = 0.0;
    so.continuous = false;
    return so;
}

FleetOptions
fleetOptions()
{
    FleetOptions fo;
    fo.replicas = kFleetReplicas;
    fo.queueCapColumns = kFleetQueueCapColumns;
    fo.engineDepthColumns = kFleetEngineDepthColumns;
    fo.engine = servingSessionOptions(Kind::Fleet);
    return fo;
}

std::size_t
groupWidth(const CompiledModel &m)
{
    return static_cast<std::size_t>(m.options().v);
}

/** Create the serving surface of `kind` on `s` (session or fleet). */
void
createServing(Stack &s, Kind kind)
{
    if (kind == Kind::Fleet) {
        s.fleet = s.rt->createFleet(fleetOptions());
        s.fleet.deploy(s.model);
    } else {
        s.session = s.rt->createSession(servingSessionOptions(kind));
    }
}

/** One small request through the serving surface; @return success. */
bool
firstRequest(Stack &s, Kind kind, std::uint64_t seed)
{
    const std::size_t v = groupWidth(s.model);
    MatrixF x = makeInput(s.model.inputFeatures(), v, seed);
    if (kind == Kind::Fleet)
        return s.fleet.submit(s.model, std::move(x)).get().outcome ==
               FleetOutcome::Completed;
    if (kind == Kind::Chat) {
        GenerationRequest req;
        req.prompt = std::move(x);
        req.maxSteps = 1;
        req.samplerSeed = seed;
        return s.session.generate(s.model, std::move(req)).get().steps == 1;
    }
    return s.session.infer(s.model, std::move(x)).output.cols() == v;
}

Stack
setUp(Kind kind, std::uint64_t seed, int reps,
      std::vector<SetupSample> &samples)
{
    const ModelSpec spec = modelFor(kind);
    Stack s;
    for (int rep = 0; rep < reps; ++rep) {
        s.tearDown(); // the previous repetition goes first
        SetupSample smp;
        const Tick t0 = Clock::now();
        s.rt = std::make_unique<Runtime>(pinnedRuntimeOptions());
        const Tick t1 = Clock::now();
        detail::reloadKernelCosts(); // a fresh calibration draw
        const Tick t2 = Clock::now();
        s.model = s.rt->compile(spec);
        const Tick t3 = Clock::now();
        createServing(s, kind);
        if (!firstRequest(s, kind, seed + static_cast<std::uint64_t>(rep)))
            throw std::runtime_error("set-up request failed");
        const Tick t4 = Clock::now();
        smp.totalS = msBetween(t0, t4) / 1000.0;
        smp.calibrationMs = msBetween(t1, t2);
        smp.compileMs = msBetween(t2, t3);
        smp.firstRequestMs = msBetween(t3, t4);
        smp.thresholdPct = streamThresholdPct();
        samples.push_back(smp);
    }
    return s;
}

// ---------------------------------------------------------------------
// Phase results (one timed phase of any workload)
// ---------------------------------------------------------------------

/** Engine-level record of one request or generation step. */
struct EngineRecord
{
    std::uint64_t cohortKey = 0; ///< (replica, batchSeq)
    std::size_t columns = 0;
    std::size_t batchSize = 0;
    std::size_t admittedAtLayer = 0;
    double queueWaitMs = -1.0; ///< < 0 when the API does not split it
    double executeMs = -1.0;
};

struct PhaseResult
{
    Ops ops;
    double wallS = 0.0;        ///< summed over the phase's segments
    std::uint64_t columns = 0; ///< columns completed in the phase
    /** Columns per second of each segment: a chat wave, a prefill
     *  round, or the whole fleet phase. tokens_per_s is the median. */
    std::vector<double> segmentTokensPerS;
    std::vector<double> ttftMs;   ///< due -> first output
    std::vector<double> itlMs;    ///< decode gaps (chat)
    std::vector<double> shortMs;  ///< due -> terminal, short (fleet)
    std::vector<double> longMs;   ///< due -> terminal, long (fleet)
    std::vector<double> lateMs;   ///< generator lateness (fleet)
    std::uint64_t sloMet = 0;
    std::uint64_t sloTotal = 0;
    std::vector<EngineRecord> engine;
    /** chat: per decode gap, gap - that step's engine latency. */
    std::vector<double> pumpOverheadMs;
    std::vector<double> decodeCohort;
    std::size_t arenaBytesPeak = 0;
    /** fleet: router wait per request, per-replica completions. */
    std::vector<double> routerWaitMs;
    std::map<int, std::uint64_t> perReplica;
    std::uint64_t shed = 0;
    double gemmMs = -1.0; ///< engine GEMM wall time, when exposed
    /** Session engine percentiles, for traffic whose per-request
     *  records do not split queue wait from execution (generation). */
    SessionStats session;
    /** stream_threshold_pct of each calibration the phase ran under. */
    std::vector<double> thresholds;

    void
    closeSegment(std::uint64_t cols, double wall_s)
    {
        columns += cols;
        wallS += wall_s;
        segmentTokensPerS.push_back(static_cast<double>(cols) / wall_s);
    }
};

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out + "]";
}

JsonObject
percentileDetail(const std::vector<double> &v)
{
    JsonObject o;
    o.integer("n", v.size());
    o.num("p50", percentile(v, 50));
    const double tp = tailPercentile(v.size());
    o.num("tail_pct", tp);
    o.num("tail", percentile(v, tp));
    return o;
}

// ---------------------------------------------------------------------
// chat_decode
// ---------------------------------------------------------------------

/** One generation of a chat client. */
struct ChatSlot
{
    std::uint64_t index = 0;
    bool sampled = false;
    Tick due;
    std::vector<Tick> decodeTimes; ///< written by the pump thread
    MatrixF prompt;                ///< kept when sampled
    ChatJob job;
    std::future<GenerationResult> fut;
};

struct CheckItem
{
    MatrixF input;
    std::uint64_t samplerSeed = 0;
    std::size_t steps = 0;
    MatrixF output;
    MatrixF prefillOutput;
};

/** A fresh kernel calibration while nothing is in flight. */
void
recalibrate(PhaseResult &r)
{
    detail::reloadKernelCosts();
    r.thresholds.push_back(streamThresholdPct());
}

/** Record one finished generation of a measured chat phase. */
void
harvestChat(ChatSlot &sp, SpanRecorder &spans,
            std::vector<CheckItem> &checks, PhaseResult &r)
{
    GenerationResult res;
    bool ok = true;
    try {
        res = sp.fut.get();
    } catch (const std::exception &e) {
        std::cerr << "chat generation failed: " << e.what() << "\n";
        ok = false;
    }
    if (!ok || sp.decodeTimes.size() != kChatSteps) {
        ++r.ops.failed;
        ++r.ops.broken;
        return;
    }
    ++r.ops.completed;
    const double ttft = msBetween(sp.due, sp.decodeTimes[0]);
    r.ttftMs.push_back(ttft);
    ++r.sloTotal;
    r.sloMet += ttft <= kChatTtftSloMs;
    std::vector<const GenerationStepMeta *> decode;
    for (const auto &m : res.stepMeta) {
        if (m.phase == GenerationPhase::Decode) {
            decode.push_back(&m);
            r.decodeCohort.push_back(static_cast<double>(m.batchSize));
        }
        r.engine.push_back({m.batchSeq, m.columns, m.batchSize,
                            m.admittedAtLayer, -1.0, -1.0});
    }
    for (std::size_t i = 1; i < sp.decodeTimes.size(); ++i) {
        const double gap = msBetween(sp.decodeTimes[i - 1], sp.decodeTimes[i]);
        r.itlMs.push_back(gap);
        if (i < decode.size())
            r.pumpOverheadMs.push_back(gap - decode[i]->latencyMs);
    }
    r.arenaBytesPeak = std::max(r.arenaBytesPeak, res.arenaBytes);
    if (spans.enabled()) {
        const std::uint64_t rid = sp.index + 1;
        const std::uint64_t g = spans.record(
            "generation", sp.due, sp.decodeTimes.back(), 0, rid);
        for (std::size_t i = 0; i < decode.size(); ++i)
            spans.record("gen.decode_step",
                         plusMs(sp.decodeTimes[i], -decode[i]->latencyMs),
                         sp.decodeTimes[i], g, rid);
    }
    if (sp.sampled) {
        CheckItem ci;
        ci.input = std::move(sp.prompt);
        ci.samplerSeed = sp.job.samplerSeed;
        ci.steps = kChatSteps;
        ci.output = std::move(res.output);
        ci.prefillOutput = std::move(res.prefillOutput);
        checks.push_back(std::move(ci));
    }
}

/**
 * The chat phase: the kChatClients clients run in waves - each issues
 * one generation, and the next wave starts once all have finished
 * (every generation decodes the same number of steps in shared
 * cohorts, so free-running clients fall into this lockstep anyway).
 * The i-th generation of the phase gets chatJob(seed, i). A fresh
 * kernel calibration is drawn while the session is idle between
 * waves, so one run samples several draws. Warm-up (measured = false)
 * runs one wave.
 */
PhaseResult
runChat(Stack &s, const Options &o, double seconds, bool measured,
        SpanRecorder &spans, std::vector<CheckItem> &checks)
{
    const std::size_t v = groupWidth(s.model);
    const std::size_t features = s.model.inputFeatures();
    PhaseResult r;
    std::uint64_t next_index = 0;
    const int waves = measured ? segmentCount(seconds, kChatWaveS) : 1;
    for (int wave = 0; wave < waves; ++wave) {
        if (wave > 0)
            recalibrate(r);
        const std::uint64_t done_before = r.ops.completed;
        std::vector<ChatSlot> slots(kChatClients);
        const Tick due = Clock::now();
        for (ChatSlot &sp : slots) {
            sp.index = next_index++;
            sp.job = chatJob(o.seed, sp.index, kChatMinGroups, kChatMaxGroups);
            sp.sampled = measured && sp.index == 0 &&
                         checks.size() < kChatCheckSample;
            sp.due = due;
            sp.decodeTimes.reserve(kChatSteps);
            GenerationRequest req;
            req.prompt = makeInput(features, sp.job.promptGroups * v,
                                   sp.job.promptSeed);
            if (sp.sampled)
                sp.prompt = req.prompt;
            req.maxSteps = kChatSteps;
            req.samplerSeed = sp.job.samplerSeed;
            // Runs on the pump thread before the future is fulfilled.
            req.onStep = [raw = &sp](const GenerationStepView &sv) {
                if (sv.phase == GenerationPhase::Decode)
                    raw->decodeTimes.push_back(Clock::now());
            };
            sp.fut = s.session.generate(s.model, std::move(req));
            r.ops.attempted += measured;
        }
        for (ChatSlot &sp : slots) {
            if (measured) {
                harvestChat(sp, spans, checks, r);
                continue;
            }
            try {
                sp.fut.get();
            } catch (const std::exception &e) {
                std::cerr << "chat generation failed: " << e.what() << "\n";
            }
        }
        if (measured)
            r.closeSegment((r.ops.completed - done_before) * kChatSteps * v,
                           secondsSince(due));
    }
    return r;
}

/** Manual whole-prompt + per-step loop on a solo session. */
bool
checkChat(Stack &s, std::vector<CheckItem> &checks)
{
    Session solo = s.rt->createSession(soloSessionOptions());
    const std::size_t v = groupWidth(s.model);
    bool ok = true;
    for (const CheckItem &ci : checks) {
        MatrixF prev = solo.infer(s.model, ci.input).output;
        ok = ok && sameBytes(prev, ci.prefillOutput);
        TokenSampler sampler(ci.samplerSeed);
        MatrixF ref(s.model.outputFeatures(), ci.steps * v);
        for (std::size_t step = 0; step < ci.steps; ++step) {
            MatrixF x = sampler.next(prev, s.model.inputFeatures(), v);
            MatrixF y = solo.infer(s.model, std::move(x)).output;
            for (std::size_t row = 0; row < y.rows(); ++row) {
                const auto src = y.row(row);
                std::copy(src.begin(), src.end(),
                          ref.row(row).begin() +
                              static_cast<std::ptrdiff_t>(step * v));
            }
            prev = std::move(y);
        }
        ok = ok && sameBytes(ref, ci.output);
    }
    return ok;
}

// ---------------------------------------------------------------------
// prefill_offline
// ---------------------------------------------------------------------

/**
 * Rounds of the closed batch: the fixed prompt set is queued at t=0 of
 * each round and the next round starts once all completed; a fresh
 * kernel calibration is drawn while the session is idle between
 * rounds. Warm-up (measured = false) runs one round.
 */
PhaseResult
runPrefill(Stack &s, const Options &o, double seconds, bool measured,
           SpanRecorder &spans, std::vector<CheckItem> &checks)
{
    const std::size_t v = groupWidth(s.model);
    const std::size_t features = s.model.inputFeatures();
    PhaseResult r;
    std::vector<MatrixF> prompts;
    for (std::size_t p = 0; p < kPrefillPrompts; ++p)
        prompts.push_back(makeInput(features, kPrefillGroups * v,
                                    SeedStream(o.seed * 64 + p).next()));
    const std::size_t check_pick = static_cast<std::size_t>(
        SeedStream(o.seed).next() % kPrefillPrompts);

    const std::uint64_t rounds =
        measured ? static_cast<std::uint64_t>(segmentCount(seconds, kPrefillRoundS))
                 : 1;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        if (round > 0)
            recalibrate(r);
        const Tick release = Clock::now();
        std::vector<std::future<InferenceResult>> futs;
        std::vector<Tick> submitted;
        for (const MatrixF &p : prompts) {
            submitted.push_back(Clock::now());
            futs.push_back(s.session.submit(s.model, p));
        }
        Tick round_end = release;
        std::uint64_t round_cols = 0;
        for (std::size_t p = 0; p < futs.size(); ++p) {
            r.ops.attempted += measured;
            InferenceResult res;
            try {
                res = futs[p].get();
            } catch (const std::exception &e) {
                std::cerr << "prefill request failed: " << e.what() << "\n";
                r.ops.failed += measured;
                r.ops.broken += measured;
                continue;
            }
            if (!measured)
                continue;
            const Tick ready = plusMs(submitted[p], res.latencyMs);
            round_end = std::max(round_end, ready);
            ++r.ops.completed;
            round_cols += res.output.cols();
            const double ttft = msBetween(release, ready);
            r.ttftMs.push_back(ttft);
            ++r.sloTotal;
            r.sloMet += ttft <= kPrefillTtftSloMs;
            r.engine.push_back({res.batchSeq, res.output.cols(),
                                res.batchSize, res.admittedAtLayer,
                                res.queueWaitMs, res.executeMs});
            if (spans.enabled()) {
                const std::uint64_t rid = round * kPrefillPrompts + p + 1;
                const std::uint64_t q =
                    spans.record("request", submitted[p], ready, 0, rid);
                const Tick admitted = plusMs(submitted[p], res.queueWaitMs);
                spans.record("engine.queue_wait", submitted[p], admitted, q,
                             rid);
                spans.record("engine.execute", admitted, ready, q, rid);
            }
            if (round == 0 && p == check_pick && checks.empty()) {
                CheckItem ci;
                ci.input = prompts[p];
                ci.output = std::move(res.output);
                checks.push_back(std::move(ci));
            }
        }
        if (measured)
            r.closeSegment(round_cols, msBetween(release, round_end) / 1000.0);
    }
    return r;
}

bool
checkOneShot(Stack &s, const std::vector<CheckItem> &checks)
{
    Session solo = s.rt->createSession(soloSessionOptions());
    bool ok = true;
    for (const CheckItem &ci : checks)
        ok = ok && sameBytes(solo.infer(s.model, ci.input).output,
                             ci.output);
    return ok;
}

// ---------------------------------------------------------------------
// fleet_mixed
// ---------------------------------------------------------------------

struct FleetPending
{
    Arrival a;
    Tick due;
    Tick submitted;
    std::uint64_t rid = 0;
    bool sampled = false;
    MatrixF input; ///< kept when sampled
    std::future<FleetResult> fut;
};

/**
 * The open loop: fleetSchedule(seed) at the fixed rate for `seconds`
 * (the same count and mix on every seed), submitted by this (single
 * generator) thread at their due times; a harvester thread collects
 * results in submission order. tokens_per_s is the completed request
 * columns over the phase (at least `seconds`, longer when the fleet
 * falls behind the schedule).
 */
PhaseResult
runFleet(Stack &s, std::uint64_t seed, double seconds, bool measured,
         SpanRecorder &spans, std::vector<CheckItem> &checks)
{
    const std::size_t v = groupWidth(s.model);
    const std::size_t features = s.model.inputFeatures();
    FleetMix mix;
    mix.ratePerS = kFleetRatePerS;
    mix.seconds = seconds;
    const std::vector<Arrival> sched = fleetSchedule(seed, mix);
    PhaseResult r;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::unique_ptr<FleetPending>> queue;
    bool closed = false;
    // One short and one long request of the phase are checked, chosen
    // from the schedule alone.
    const bool sample = measured && checks.empty();
    bool sampled_short = false;
    bool sampled_long = false;
    const Tick t0 = plusMs(Clock::now(), 20.0);
    Tick last_terminal = t0;

    std::thread harvester([&] {
        for (;;) {
            std::unique_ptr<FleetPending> p;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return closed || !queue.empty(); });
                if (queue.empty())
                    return;
                p = std::move(queue.front());
                queue.pop_front();
            }
            FleetResult fr = p->fut.get();
            const Tick terminal = plusMs(p->submitted, fr.fleetLatencyMs);
            last_terminal = std::max(last_terminal, terminal);
            if (!measured)
                continue;
            ++r.sloTotal;
            if (fr.outcome != FleetOutcome::Completed) {
                ++r.ops.failed;
                ++r.shed;
                continue;
            }
            ++r.ops.completed;
            r.columns += fr.result.output.cols();
            const double e2e = msBetween(p->due, terminal);
            r.ttftMs.push_back(e2e);
            (p->a.isLong ? r.longMs : r.shortMs).push_back(e2e);
            r.sloMet += e2e <= (p->a.isLong ? kFleetLongSloMs
                                            : kFleetShortSloMs);
            const double router = fr.fleetLatencyMs - fr.result.latencyMs;
            r.routerWaitMs.push_back(router);
            ++r.perReplica[fr.replica];
            r.engine.push_back(
                {(static_cast<std::uint64_t>(fr.replica) << 48) ^
                     fr.result.batchSeq,
                 fr.result.output.cols(), fr.result.batchSize,
                 fr.result.admittedAtLayer, fr.result.queueWaitMs,
                 fr.result.executeMs});
            if (spans.enabled()) {
                const std::uint64_t q =
                    spans.record("request", p->due, terminal, 0, p->rid);
                const Tick dispatched = plusMs(p->submitted, router);
                spans.record("fleet.router_wait", p->submitted, dispatched,
                             q, p->rid);
                const Tick admitted =
                    plusMs(dispatched, fr.result.queueWaitMs);
                spans.record("engine.queue_wait", dispatched, admitted, q,
                             p->rid);
                spans.record("engine.execute", admitted, terminal, q,
                             p->rid);
            }
            if (p->sampled) {
                CheckItem ci;
                ci.input = std::move(p->input);
                ci.output = std::move(fr.result.output);
                checks.push_back(std::move(ci)); // read after join()
            }
        }
    });

    for (std::size_t i = 0; i < sched.size(); ++i) {
        auto p = std::make_unique<FleetPending>();
        p->a = sched[i];
        p->rid = i + 1;
        p->due = plusMs(t0, p->a.dueMs);
        MatrixF x = makeInput(features, p->a.groups * v, p->a.inputSeed);
        bool &taken = p->a.isLong ? sampled_long : sampled_short;
        if (sample && !taken) {
            taken = true;
            p->sampled = true;
            p->input = x;
        }
        std::this_thread::sleep_until(p->due);
        p->submitted = Clock::now();
        if (measured) {
            r.lateMs.push_back(msBetween(p->due, p->submitted));
            ++r.ops.attempted;
        }
        p->fut = s.fleet.submit(s.model, std::move(x));
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(p));
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
        cv.notify_one();
    }
    harvester.join();
    r.wallS = std::max(seconds, msBetween(t0, last_terminal) / 1000.0);
    r.segmentTokensPerS = {static_cast<double>(r.columns) / r.wallS};
    return r;
}

// ---------------------------------------------------------------------
// End-to-end metrics of one timed phase
// ---------------------------------------------------------------------

MetricSet
endToEnd(const PhaseResult &r, const std::vector<SetupSample> &setup)
{
    std::vector<double> setup_s;
    for (const auto &smp : setup)
        setup_s.push_back(smp.totalS);
    MetricSet m;
    m.add("tokens_per_s", median(r.segmentTokensPerS), "1/s");
    m.add("setup_s", median(setup_s), "s");
    m.add("rss_peak_mb", peakRssMb(), "MB");
    return m;
}

/** Workload-specific numbers reported next to the metrics. */
JsonObject
phaseDetail(const PhaseResult &r)
{
    JsonObject d;
    d.num("wall_s", r.wallS);
    d.raw("segment_tokens_per_s", jsonList(r.segmentTokensPerS));
    d.num("phase_tokens_per_s",
          r.wallS > 0 ? static_cast<double>(r.columns) / r.wallS : 0.0);
    d.num("slo_attainment",
          r.sloTotal ? static_cast<double>(r.sloMet) /
                           static_cast<double>(r.sloTotal)
                     : 0.0);
    d.integer("columns", r.columns);
    d.obj("ttft_ms", percentileDetail(r.ttftMs));
    if (!r.itlMs.empty())
        d.obj("itl_ms", percentileDetail(r.itlMs));
    if (!r.shortMs.empty() || !r.longMs.empty()) {
        d.obj("short_ms", percentileDetail(r.shortMs));
        d.obj("long_ms", percentileDetail(r.longMs));
        d.obj("generator_late_ms", percentileDetail(r.lateMs));
    }
    d.integer("shed", r.shed);
    return d;
}

// ---------------------------------------------------------------------
// Replay: the run's cohorts through each layer's public functions
// ---------------------------------------------------------------------

struct ReplayTotals
{
    double prepMs = 0, concatMs = 0, countMs = 0, gemmMs = 0,
           adaptMs = 0, stepMs = 0, samplerMs = 0;
    std::uint64_t calls = 0, concatCalls = 0, samplerCalls = 0;
    std::uint64_t cols = 0;
    double denseMacs = 0;
    std::uint64_t executedOps = 0, denseOps = 0;
    double policyMs[3] = {0, 0, 0}; ///< measured, stream, gather
};

double
timedMs(const std::function<void()> &fn)
{
    const Tick t = Clock::now();
    fn();
    return msBetween(t, Clock::now());
}

/** Cohort member column widths, grouped by the run's cohort keys. */
std::vector<std::vector<std::size_t>>
cohortsOf(const std::vector<EngineRecord> &recs)
{
    std::map<std::uint64_t, std::vector<std::size_t>> by;
    for (const auto &e : recs)
        by[e.cohortKey].push_back(e.columns);
    std::vector<std::vector<std::size_t>> out;
    for (auto &[k, v] : by)
        out.push_back(std::move(v));
    return out;
}

ReplayTotals
replay(Stack &s, const std::vector<EngineRecord> &recs, std::uint64_t seed,
       std::size_t max_cohorts, double max_cols, SpanRecorder &spans,
       bool &ok)
{
    const ServedModel &model = *s.model.shared();
    const std::size_t v = groupWidth(s.model);
    auto cohorts = cohortsOf(recs);
    // Seeded sample of the run's cohorts, bounded in count and columns.
    SeedStream pick(seed ^ 0x7e91a4ull);
    for (std::size_t i = cohorts.size(); i > 1; --i)
        std::swap(cohorts[i - 1], cohorts[pick.between(0, i - 1)]);
    std::vector<std::vector<std::size_t>> chosen;
    double cols_total = 0;
    for (auto &c : cohorts) {
        const double w = std::accumulate(c.begin(), c.end(), 0.0);
        if (chosen.size() >= max_cohorts ||
            (!chosen.empty() && cols_total + w > max_cols))
            break;
        cols_total += w;
        chosen.push_back(c);
    }

    std::vector<WeightCountingCache> wcache;
    for (std::size_t l = 0; l < model.layerCount(); ++l)
        wcache.push_back(buildWeightCountingCache(model.layer(l).weights(),
                                                  static_cast<int>(v)));

    const Tick rstart = Clock::now();
    ReplayTotals t;
    std::uint64_t cohort_id = 0;
    for (const auto &members : chosen) {
        ++cohort_id;
        const std::uint64_t rid = 1'000'000 + cohort_id;
        const Tick cstart = Clock::now();
        std::vector<MatrixF> xs;
        std::vector<std::size_t> offsets{0};
        for (std::size_t i = 0; i < members.size(); ++i) {
            xs.push_back(makeInput(model.inputFeatures(), members[i],
                                   seed + cohort_id * 131 + i));
            offsets.push_back(offsets.back() + members[i] / v);
        }
        const std::size_t width = offsets.back() * v;
        for (std::size_t l = 0; l < model.layerCount(); ++l) {
            const AqsLinearLayer &layer = model.layer(l);
            std::vector<ActivationOperand> ops(xs.size());
            const Tick lstart = Clock::now();
            const double prep = timedMs([&] {
                for (std::size_t i = 0; i < xs.size(); ++i)
                    ops[i] = model.prepareStepInput(l, xs[i]);
            });
            ActivationOperand cat;
            const double concat = timedMs([&] {
                if (ops.size() == 1) {
                    cat = ops[0];
                    return;
                }
                std::vector<const ActivationOperand *> ptrs;
                for (const auto &op : ops)
                    ptrs.push_back(&op);
                cat = concatActivationOperands(ptrs, layer.config());
            });
            std::vector<AqsStats> stats;
            const double count = timedMs([&] {
                stats = aqsCountStatsBatch(layer.weights(), cat,
                                           layer.config(), wcache[l],
                                           offsets);
            });
            MatrixI64 acc;
            const double gemm =
                timedMs([&] { acc = layer.forwardPrepared(cat); });
            MatrixF next;
            const std::size_t want =
                l + 1 < model.layerCount()
                    ? model.layer(l + 1).weights().sliced.cols()
                    : 0;
            const double adapt = timedMs([&] {
                MatrixF y = layer.dequantizeOutput(acc);
                next = want ? ServedModel::adaptFeatures(std::move(y), want)
                            : std::move(y);
            });
            ServedModel::StepResult step;
            const double fps = timedMs(
                [&] { step = model.forwardPreparedStep(l, cat, offsets); });
            ok = ok && sameBytes(step.next, next);

            // Same GEMM under each policy, interleaved.
            const StreamPolicy pol[3] = {StreamPolicy::Measured,
                                         StreamPolicy::Stream,
                                         StreamPolicy::Gather};
            for (int k = 0; k < 3; ++k) {
                setStreamPolicy(pol[k]);
                MatrixI64 a2;
                t.policyMs[k] +=
                    timedMs([&] { a2 = layer.forwardPrepared(cat); });
                ok = ok && a2.data().size() == acc.data().size() &&
                     std::equal(a2.data().begin(), a2.data().end(),
                                acc.data().begin());
            }
            setStreamPolicy(StreamPolicy::Measured);

            t.prepMs += prep;
            t.concatMs += concat;
            t.concatCalls += ops.size() > 1;
            t.countMs += count;
            t.gemmMs += gemm;
            t.adaptMs += adapt;
            t.stepMs += fps;
            t.calls += 1;
            t.cols += width;
            t.denseMacs += static_cast<double>(layer.weights().sliced.rows()) *
                           static_cast<double>(layer.weights().sliced.cols()) *
                           static_cast<double>(width);
            for (const AqsStats &st : stats) {
                t.executedOps += st.executedOuterProducts;
                t.denseOps += st.denseOuterProducts;
            }
            if (spans.enabled()) {
                const std::uint64_t ls = spans.record(
                    "replay.layer" + std::to_string(l), lstart, Clock::now(),
                    0, rid);
                Tick at = lstart;
                for (const auto &[name, ms] :
                     {std::pair<const char *, double>{"prep", prep},
                      {"concat", concat},
                      {"count", count},
                      {"gemm", gemm},
                      {"adapt", adapt},
                      {"forwardPreparedStep", fps}}) {
                    spans.record(std::string("replay.") + name, at,
                                 plusMs(at, ms), ls, rid);
                    at = plusMs(at, ms);
                }
            }
            // Split the adapted output back into member inputs.
            std::vector<MatrixF> nx;
            std::size_t c0 = 0;
            for (std::size_t i = 0; i < xs.size(); ++i) {
                const std::size_t w = members[i];
                MatrixF part(next.rows(), w);
                for (std::size_t row = 0; row < next.rows(); ++row) {
                    const auto src = next.row(row);
                    std::copy(src.begin() + static_cast<std::ptrdiff_t>(c0),
                              src.begin() +
                                  static_cast<std::ptrdiff_t>(c0 + w),
                              part.row(row).begin());
                }
                c0 += w;
                nx.push_back(std::move(part));
            }
            xs = std::move(nx);
        }
        // The decode sampler on each member's final output.
        for (const MatrixF &y : xs) {
            TokenSampler sampler(seed + cohort_id);
            t.samplerMs += timedMs([&] {
                MatrixF x = sampler.next(y, model.inputFeatures(), v);
                (void)x;
            });
            ++t.samplerCalls;
        }
        spans.record("replay.cohort", cstart, Clock::now(), 0, rid);
    }
    spans.record("replay", rstart, Clock::now(), 0, 0);
    return t;
}

// ---------------------------------------------------------------------
// Per-layer metrics (traced run)
// ---------------------------------------------------------------------

MetricSet
perLayer(const PhaseResult &r, const std::vector<SetupSample> &setup,
         const ReplayTotals &t, double gemm_busy_share)
{
    std::vector<double> cal, comp, first;
    for (const auto &smp : setup) {
        cal.push_back(smp.calibrationMs);
        comp.push_back(smp.compileMs);
        first.push_back(smp.firstRequestMs);
    }
    std::vector<double> qw, ex, cohort;
    std::uint64_t spliced = 0;
    std::map<std::uint64_t, std::size_t> cohorts;
    for (const auto &e : r.engine) {
        if (e.queueWaitMs >= 0)
            qw.push_back(e.queueWaitMs);
        if (e.executeMs >= 0)
            ex.push_back(e.executeMs);
        cohorts[e.cohortKey] = std::max(cohorts[e.cohortKey], e.batchSize);
        spliced += e.admittedAtLayer > 0;
    }
    for (const auto &[k, n] : cohorts)
        cohort.push_back(static_cast<double>(n));
    const double calls = std::max<double>(1.0, static_cast<double>(t.calls));
    const double best_forced = std::min(t.policyMs[1], t.policyMs[2]);
    const double covered = t.countMs + t.gemmMs + t.adaptMs;

    MetricSet m;
    m.add("setup.calibration_ms", median(cal), "ms");
    m.add("setup.compile_ms", median(comp), "ms");
    m.add("setup.first_request_ms", median(first), "ms");
    m.add("core.gemm_ms_per_call", t.gemmMs / calls, "ms");
    m.add("core.gemm_gmacs", t.denseMacs / (t.gemmMs * 1e6), "GMAC/s");
    m.add("core.ps_per_executed_op",
          t.gemmMs * 1e9 /
              std::max<double>(1.0, static_cast<double>(t.executedOps)),
          "ps");
    m.add("core.executed_op_share",
          static_cast<double>(t.executedOps) /
              std::max<double>(1.0, static_cast<double>(t.denseOps)),
          "share");
    m.add("core.stream_threshold_pct", median(r.thresholds), "%");
    m.add("core.policy_regret",
          best_forced > 0 ? t.policyMs[0] / best_forced : 0.0, "ratio");
    m.add("prep.ms_per_col",
          t.prepMs / std::max<double>(1.0, static_cast<double>(t.cols)),
          "ms");
    m.add("step.count_ms_per_call", t.countMs / calls, "ms");
    m.add("step.adapt_ms_per_call", t.adaptMs / calls, "ms");
    m.add("step.concat_ms_per_call",
          t.concatMs / std::max<double>(
                           1.0, static_cast<double>(t.concatCalls)),
          "ms");
    m.add("step.residual_share",
          t.stepMs > 0 ? (t.stepMs - covered) / t.stepMs : 0.0, "share");
    const bool split = !qw.empty();
    m.add("engine.queue_wait_p50_ms",
          split ? percentile(qw, 50) : r.session.p50QueueWaitMs, "ms");
    // The tail rule caps p99 where fewer than ten samples lie beyond
    // it (the detail line gives the percentile taken and n).
    m.add("engine.queue_wait_p99_ms",
          split ? percentile(qw, std::min(99.0, tailPercentile(qw.size())))
                : r.session.p99QueueWaitMs,
          "ms");
    m.add("engine.execute_p50_ms",
          split ? percentile(ex, 50) : r.session.p50ExecuteMs, "ms");
    m.add("engine.cohort_requests_mean",
          cohort.empty() ? 0.0
                         : std::accumulate(cohort.begin(), cohort.end(), 0.0) /
                               static_cast<double>(cohort.size()),
          "count");
    m.add("engine.spliced_share",
          r.engine.empty() ? 0.0
                           : static_cast<double>(spliced) /
                                 static_cast<double>(r.engine.size()),
          "share");
    m.add("engine.gemm_busy_share", gemm_busy_share, "share");
    m.add("gen.sampler_ms_per_step",
          t.samplerMs / std::max<double>(
                            1.0, static_cast<double>(t.samplerCalls)),
          "ms");
    return m;
}

/** Layer numbers only one workload's traffic produces. */
JsonObject
layerDetail(const PhaseResult &r)
{
    JsonObject d;
    std::vector<double> qw;
    for (const auto &e : r.engine)
        if (e.queueWaitMs >= 0)
            qw.push_back(e.queueWaitMs);
    if (!qw.empty())
        d.obj("engine.queue_wait_ms", percentileDetail(qw));
    if (!r.pumpOverheadMs.empty()) {
        d.num("gen.pump_overhead_p50_ms", percentile(r.pumpOverheadMs, 50));
        d.num("gen.decode_cohort_mean",
              std::accumulate(r.decodeCohort.begin(), r.decodeCohort.end(),
                              0.0) /
                  std::max<double>(1.0, static_cast<double>(
                                            r.decodeCohort.size())));
        d.integer("gen.arena_bytes_peak", r.arenaBytesPeak);
    }
    if (!r.routerWaitMs.empty()) {
        d.num("fleet.router_wait_p50_ms", percentile(r.routerWaitMs, 50));
        d.obj("fleet.router_wait_ms", percentileDetail(r.routerWaitMs));
        std::uint64_t hi = 0, lo = ~std::uint64_t{0};
        for (int rep = 0; rep < kFleetReplicas; ++rep) {
            const std::uint64_t n =
                r.perReplica.count(rep) ? r.perReplica.at(rep) : 0;
            hi = std::max(hi, n);
            lo = std::min(lo, n);
        }
        d.num("fleet.replica_imbalance",
              hi ? static_cast<double>(hi - lo) / static_cast<double>(hi)
                 : 0.0);
        d.num("fleet.shed_share",
              r.ops.attempted ? static_cast<double>(r.shed) /
                                    static_cast<double>(r.ops.attempted)
                              : 0.0);
    }
    return d;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/**
 * Run one timed phase of the workload after an untimed warm-up of the
 * same traffic (lazy state, first cohort shapes, allocator growth).
 */
PhaseResult
timedPhase(Stack &s, const Options &o, double seconds, std::uint64_t seed,
           SpanRecorder &spans, std::vector<CheckItem> &checks)
{
    Options po = o;
    po.seed = seed;
    SpanRecorder off(false);
    std::vector<CheckItem> none;
    if (o.kind == Kind::Fleet) {
        runFleet(s, seed ^ 0x3a3a, kFleetWarmupS, false, off, none);
        PhaseResult r = runFleet(s, seed, seconds, true, spans, checks);
        r.thresholds.push_back(streamThresholdPct());
        return r;
    }
    auto run = o.kind == Kind::Chat ? runChat : runPrefill;
    Options wo = po;
    wo.seed = seed ^ 0x3a3a;
    run(s, wo, 0.0, false, off, none); // one wave / one round
    const double gemm_before = s.session.stats().gemmMs;
    const double active = streamThresholdPct();
    PhaseResult r = run(s, po, seconds, true, spans, checks);
    r.thresholds.insert(r.thresholds.begin(), active);
    s.session.drain();
    r.session = s.session.stats();
    r.gemmMs = r.session.gemmMs - gemm_before;
    return r;
}

bool
checkOutputs(Stack &s, Kind kind, std::vector<CheckItem> &checks)
{
    if (checks.empty())
        return false; // a run must check something
    return kind == Kind::Chat ? checkChat(s, checks)
                              : checkOneShot(s, checks);
}

JsonObject
environment(const std::vector<double> &setup_draws,
            const std::vector<double> &timed_draws)
{
    JsonObject e;
    e.integer("pool_width", static_cast<std::uint64_t>(parallelThreads()));
    e.integer("engine_workers", kEngineWorkers);
    e.integer("replicas", kFleetReplicas);
    e.str("isa", toString(activeIsaLevel()));
    e.str("isa_cap", toString(supportedIsaCap()));
    e.str("stream_policy", toString(activeStreamPolicy()));
    e.str("calibration_dir", "(none: measured in-process, not persisted)");
    // The resolved calibrations: each set-up's draw, and the draws the
    // timed phases ran under (the last set-up's, then one per round).
    e.raw("stream_threshold_pct_setup", jsonList(setup_draws));
    e.raw("stream_threshold_pct_timed", jsonList(timed_draws));
    e.integer("hardware_threads", std::thread::hardware_concurrency());
    return e;
}

int
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload chat_decode|prefill_offline|"
                 "fleet_mixed --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n";
    return 2;
}

/** Set up, run the phases, check outputs and print the result. */
int
runBenchmark(const Options &o)
{
    // No calibration file is read or written: every set-up repetition
    // measures its own, so runs sample the calibration distribution;
    // the timed phases run under the last set-up's draw.
    detail::setKernelCostCacheDir("");

    const Tick origin = Clock::now();
    std::vector<SetupSample> setup;
    Stack s = setUp(o.kind, o.seed, setupReps(o.kind), setup);
    std::vector<double> setup_draws, timed_draws;
    for (const auto &smp : setup)
        setup_draws.push_back(smp.thresholdPct);

    SpanRecorder off(false);
    std::vector<CheckItem> checks;
    Ops ops;
    JsonObject detail;
    MetricSet metrics;
    bool ok = true;

    if (!o.trace) {
        PhaseResult r = timedPhase(s, o, o.seconds, o.seed, off, checks);
        timed_draws = r.thresholds;
        ops.merge(r.ops);
        metrics = endToEnd(r, setup);
        detail.obj("phase", phaseDetail(r));
    } else {
        // Untraced and traced halves on the same stack: their ratio is
        // the tracing overhead.
        const double half = o.seconds / 2.0;
        PhaseResult ru = timedPhase(s, o, half, o.seed, off, checks);
        SpanRecorder spans(true);
        if (o.kind != Kind::Fleet) // a fresh session for clean stats
            createServing(s, o.kind);
        PhaseResult rt = timedPhase(s, o, half, o.seed + 7, spans, checks);
        timed_draws = ru.thresholds;
        timed_draws.insert(timed_draws.end(), rt.thresholds.begin(),
                           rt.thresholds.end());
        ops.merge(ru.ops);
        ops.merge(rt.ops);
        const MetricSet eu = endToEnd(ru, setup);
        const MetricSet et = endToEnd(rt, setup);
        JsonObject overhead;
        for (const auto &[name, vu] : et.items) {
            const double base = eu.get(name);
            overhead.num(name, base != 0 ? vu.first / base : 0.0);
        }

        const std::size_t max_cohorts = o.kind == Kind::Prefill ? 1 : 12;
        const double max_cols = o.kind == Kind::Prefill ? 1024 : 2048;
        const ReplayTotals t =
            replay(s, rt.engine, o.seed, max_cohorts, max_cols, spans, ok);

        double busy = rt.gemmMs / (rt.wallS * 1000.0);
        if (o.kind == Kind::Fleet) {
            // The fleet API does not expose engine GEMM time: estimate it
            // from the replay's per-column GEMM cost at the run's widths,
            // as a share of both replicas' wall time.
            const double ms_per_col =
                t.gemmMs / std::max<double>(1.0, static_cast<double>(t.cols)) *
                static_cast<double>(s.model.layerCount());
            busy = ms_per_col * static_cast<double>(rt.columns) /
                   (rt.wallS * 1000.0 * kFleetReplicas);
        }
        metrics = perLayer(rt, setup, t, busy);
        detail.obj("untraced", JsonObject(eu.json()));
        detail.obj("traced", JsonObject(et.json()));
        detail.obj("tracing_overhead_ratio", overhead);
        detail.obj("phase", phaseDetail(rt));
        detail.obj("layers", layerDetail(rt));
        detail.integer("spans", spans.size());
        std::error_code ec;
        std::filesystem::create_directories(o.outDir, ec);
        const std::string path = o.outDir + "/trace_" + o.workload + "_" +
                                 std::to_string(o.seed) + ".json";
        if (spans.writeChromeTrace(path, origin))
            detail.str("trace_file", path);
        else
            std::cerr << "perfbench: could not write " << path << "\n";
    }

    const bool outputs_ok = checkOutputs(s, o.kind, checks);
    std::uint64_t checked = 0;
    for (const auto &c : checks)
        checked += !c.output.data().empty();
    if (!outputs_ok || !ok) {
        ++ops.broken;
        ++ops.failed;
    }
    std::vector<double> setup_s;
    for (const auto &smp : setup)
        setup_s.push_back(smp.totalS);
    detail.raw("setup_s", jsonList(setup_s));
    detail.obj("environment", environment(setup_draws, timed_draws));
    detail.obj("ops", JsonObject()
                          .integer("sent", ops.attempted)
                          .integer("completed", ops.completed)
                          .integer("failed", ops.failed)
                          .integer("outputs_checked", checked)
                          .boolean("outputs_bit_exact", outputs_ok && ok));
    std::cout << JsonObject().str("workload", o.workload).obj("detail", detail).text()
              << "\n";

    const bool correct = ops.broken == 0;
    JsonObject result;
    result.boolean("correct", correct)
        .integer("attempted", std::max<std::uint64_t>(1, ops.attempted))
        .integer("failed", ops.failed)
        .obj("metrics", metrics.json());
    std::cout << result.text() << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                return {};
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--out-dir")
                o.outDir = value();
            else
                return usage(("unknown argument " + a).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload == "chat_decode")
        o.kind = Kind::Chat;
    else if (o.workload == "prefill_offline")
        o.kind = Kind::Prefill;
    else if (o.workload == "fleet_mixed")
        o.kind = Kind::Fleet;
    else
        return usage("unknown --workload");
    if (!(o.seconds > 0))
        return usage("--seconds must be positive");

    try {
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
