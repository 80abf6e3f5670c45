/**
 * @file
 * Host-kernel microbenchmark: the scalar reference AQS-GEMM versus the
 * register-blocked, skip-list-driven, multi-threaded kernel - across
 * every ISA level the host can run - plus the legacy bit-slice GEMM and
 * the dense integer GEMM for context, and the operand-preparation
 * stages serial vs parallel. These measure the simulator's own CPU
 * kernels, not modeled hardware.
 *
 * Usage:
 *   bench_kernels                  # human-readable table
 *   bench_kernels --json           # also write BENCH_kernels.json
 *   bench_kernels --json=out.json  # custom output path
 *   bench_kernels --quick          # fewer repetitions (CI smoke)
 *   bench_kernels --shapes         # served-model layers only: ms under
 *                                  # the rule, forced stream and gather
 *
 * The JSON payload records old-vs-new GMAC/s (effective dense MACs per
 * second), the speedup ratio, a per-ISA GMAC/s table at the 256^3/60%
 * reference case, the thread-scaling curve of the new kernel, the
 * serial-vs-parallel preparation-stage speedups, and a parity flag
 * asserting every kernel agreed with the reference bit-for-bit during
 * the run. --shapes instead times aqsGemm on the real operands of the
 * served llama32_1b stack (N = 512, one prefill round) and bertBase
 * (N = 8) and records, per layer, the ms under the stream/list rule
 * (core/kernel_cost_model.h) with the number of passes it streams and
 * lists, plus the single-thread ms under forced stream and forced
 * gather (every pass with a list runs listed; the JSON keeps the
 * "gather" names); a layer's parity requires all three outputs equal.
 * See README.md ("Bench JSON schema") for the field list.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/aqs_gemm.h"
#include "core/kernel_cost_model.h"
#include "core/legacy_gemm.h"
#include "core/operand_pack.h"
#include "core/pair_pass.h"
#include "models/model_zoo.h"
#include "quant/gemm_quant.h"
#include "serve/served_model.h"
#include "slicing/rle.h"
#include "slicing/slice_tensor.h"
#include "util/cpu_features.h"
#include "util/parallel_for.h"
#include "util/random.h"

using namespace panacea;

namespace {

struct BenchOptions
{
    bool writeJson = false;
    std::string jsonPath = "BENCH_kernels.json";
    double minSeconds = 0.3;
    int maxReps = 25;
    bool quick = false;
    bool shapes = false;
};

MatrixI32
weightCodes(Rng &rng, std::size_t m, std::size_t k, double near_zero)
{
    MatrixI32 w(m, k);
    for (auto &v : w.data())
        v = rng.bernoulli(near_zero)
                ? static_cast<std::int32_t>(rng.uniformInt(-8, 7))
                : static_cast<std::int32_t>(rng.uniformInt(-64, 63));
    return w;
}

MatrixI32
actCodes(Rng &rng, std::size_t k, std::size_t n, std::int32_t zp,
         double clustered)
{
    MatrixI32 x(k, n);
    for (auto &v : x.data())
        v = rng.bernoulli(clustered)
                ? static_cast<std::int32_t>(std::clamp<std::int64_t>(
                      zp + rng.uniformInt(-7, 7), 0, 255))
                : static_cast<std::int32_t>(rng.uniformInt(0, 255));
    return x;
}

/** Best-of repeated timing in milliseconds. */
template <typename F>
double
timeMs(const BenchOptions &opt, F &&fn)
{
    using clock = std::chrono::steady_clock;
    fn(); // warm-up
    double best = 1e300;
    double total = 0.0;
    for (int rep = 0; rep < opt.maxReps; ++rep) {
        auto t0 = clock::now();
        fn();
        auto t1 = clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best = std::min(best, ms);
        total += ms * 1e-3;
        if (rep >= 2 && total >= opt.minSeconds)
            break;
    }
    return best;
}

double
gmacs(std::size_t m, std::size_t k, std::size_t n, double ms)
{
    return static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n) / (ms * 1e6);
}

struct CaseResult
{
    std::size_t dim = 0;
    int sparsityPct = 0;
    double refMs = 0.0;
    double newMs = 0.0;
    bool parity = false;

    double speedup() const { return refMs / newMs; }
};

struct IsaCase
{
    IsaLevel level = IsaLevel::Scalar;
    double ms = 0.0;
    bool parity = false;
};

struct ThreadPoint
{
    int threads = 0;
    int poolThreads = 0; ///< width the pool actually ran with
    double ms = 0.0;
    double speedupVs1 = 0.0;
};

struct PrepStage
{
    const char *name = "";
    double serialMs = 0.0;
    double parallelMs = 0.0;

    double speedup() const { return serialMs / parallelMs; }
};

CaseResult
runCase(const BenchOptions &opt, std::size_t dim, int sparsity_pct)
{
    Rng rng(2);
    const std::int32_t zp = 136;
    const double sparsity = sparsity_pct / 100.0;
    MatrixI32 w = weightCodes(rng, dim, dim, sparsity);
    MatrixI32 x = actCodes(rng, dim, dim, zp, sparsity);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);

    CaseResult res;
    res.dim = dim;
    res.sparsityPct = sparsity_pct;

    AqsStats ref_stats, new_stats;
    MatrixI64 ref = aqsGemmReference(w_op, x_op, cfg, &ref_stats);
    MatrixI64 neu = aqsGemm(w_op, x_op, cfg, &new_stats);
    res.parity = ref == neu &&
                 ref_stats.executedOuterProducts ==
                     new_stats.executedOuterProducts &&
                 ref_stats.totalMults() == new_stats.totalMults();

    res.refMs = timeMs(opt, [&] { aqsGemmReference(w_op, x_op, cfg); });
    res.newMs = timeMs(opt, [&] { aqsGemm(w_op, x_op, cfg); });
    return res;
}

/** One served model layer timed on its real operands (--shapes). */
struct ShapeResult
{
    std::string model;
    std::string layer;
    std::size_t m = 0, k = 0, n = 0;
    int v = 0;
    std::size_t wLevels = 0, xLevels = 0;
    double ms1t = 0.0;   ///< single-thread best-of
    double msPool = 0.0; ///< best-of at the full pool width
    double ms1tStream = 0.0; ///< single-thread best-of, forced stream
    double ms1tGather = 0.0; ///< single-thread best-of, forced gather
    std::uint64_t executed = 0; ///< executed outer products
    std::uint64_t streamPasses = 0, gatherPasses = 0;
    bool parity = false;

    double psPerOp() const { return ms1t * 1e9 / executed; }
};

/**
 * How many pair passes of one aqsGemm call stream all kq quads and how
 * many run listed: per (m-group, n-group) tile, the same per-pass
 * choice the kernel makes under the active policy (served activations
 * are unsigned, so every side may list). Fills the pass-count fields
 * of `res`.
 */
void
countLayerPasses(const WeightOperand &w, const ActivationOperand &x,
                 const AqsConfig &cfg, ShapeResult &res)
{
    const std::size_t kk = w.sliced.cols();
    const std::size_t uv = static_cast<std::size_t>(cfg.v);
    const std::size_t m_groups = w.sliced.rows() / uv;
    const std::size_t n_groups = x.sliced.cols() / uv;
    const std::size_t kq = detail::quadCount(kk);
    const detail::StreamDecision sd{activeStreamPolicy()};
    const bool x_identity = cfg.actSkip == ActSkipMode::None;
    const detail::SkipLists xd =
        x_identity ? detail::SkipLists{} : detail::buildSkipLists(x.hoMask);
    const std::size_t words = detail::bitsetWords(kk);
    std::vector<std::uint64_t> wbits(words);

    // A pass with a list of nq quads (`listed`), else over all of them.
    auto pass = [&](bool listed, std::uint64_t nq, std::uint64_t count) {
        if (!listed || sd.profitable(nq, kq))
            res.streamPasses += count;
        else
            res.gatherPasses += count;
    };
    const std::uint64_t lo_lo = (res.wLevels - 1) * (res.xLevels - 1);
    for (std::size_t mg = 0; mg < m_groups; ++mg) {
        const bool w_listed =
            detail::denseStepsOfRow(w.hoMask.row(mg).data(), kk,
                                    wbits.data()) != kk;
        const std::uint64_t nwq = detail::quadCountOf(
            words, [&](std::size_t i) { return wbits[i]; });
        for (std::size_t ng = 0; ng < n_groups; ++ng) {
            const bool x_listed = !x_identity && xd.count(ng) != kk;
            const std::uint64_t nxq = x_listed ? xd.qcount(ng) : kq;
            std::uint64_t nboth = w_listed ? nwq : nxq;
            if (w_listed && x_listed) {
                const std::uint64_t *xbits = xd.bitset(ng);
                nboth = detail::quadCountOf(words, [&](std::size_t i) {
                    return xbits[i] & wbits[i];
                });
            }
            pass(false, kq, lo_lo);
            pass(w_listed, nwq, res.xLevels - 1);
            pass(x_listed, nxq, res.wLevels - 1);
            pass(w_listed || x_listed, nboth, 1);
        }
    }
}

/** Runs every layer of `spec` (all of them once, in stack order) on
 *  `columns` token columns, timing aqsGemm on each layer's real
 *  prepared operand. */
void
runModelShapes(const BenchOptions &opt, const ModelSpec &spec,
               std::size_t columns, std::vector<ShapeResult> &out)
{
    const serve::ServeModelOptions so;
    const serve::ServedModel model = serve::ServedModel::build(spec, so);
    // One timed call per point under --quick: a llama32_1b layer runs
    // for seconds on a scalar-only CI core.
    BenchOptions topt = opt;
    if (opt.quick)
        topt.maxReps = 1;
    const int pool = parallelThreads();
    const std::size_t uv = static_cast<std::size_t>(so.v);

    Rng rng(23);
    MatrixF x(model.inputFeatures(), columns);
    for (float &e : x.data())
        e = static_cast<float>(rng.gaussian(0.2, 1.0));
    const std::size_t offsets[2] = {0, columns / uv};

    for (std::size_t l = 0; l < model.layerCount(); ++l) {
        const AqsLinearLayer &layer = model.layer(l);
        const ActivationOperand op = model.prepareStepInput(l, x);
        const WeightOperand &w = layer.weights();
        const AqsConfig &cfg = layer.config();

        ShapeResult r;
        r.model = spec.name;
        r.layer = spec.layers[l].name;
        r.m = w.sliced.rows();
        r.k = w.sliced.cols();
        r.n = op.sliced.cols();
        r.v = cfg.v;
        r.wLevels = w.sliced.levels();
        r.xLevels = op.sliced.levels();

        setParallelThreads(1);
        AqsStats st1;
        const MatrixI64 acc1 = aqsGemm(w, op, cfg, &st1);
        r.ms1t = timeMs(topt, [&] { aqsGemm(w, op, cfg); });
        setParallelThreads(pool);
        AqsStats stp;
        r.parity = aqsGemm(w, op, cfg, &stp) == acc1 &&
                   stp.executedOuterProducts == st1.executedOuterProducts &&
                   st1.executedOuterProducts ==
                       aqsCountStats(w, op, cfg).executedOuterProducts;
        r.msPool = timeMs(topt, [&] { aqsGemm(w, op, cfg); });
        r.executed = st1.executedOuterProducts;

        // The same operands under forced stream and forced gather: the
        // dense streams must agree with the listed passes on served
        // shapes, not only on test shapes.
        setParallelThreads(1);
        const StreamPolicy policy = activeStreamPolicy();
        for (StreamPolicy forced :
             {StreamPolicy::Stream, StreamPolicy::Gather}) {
            setStreamPolicy(forced);
            r.parity = r.parity && aqsGemm(w, op, cfg) == acc1;
            (forced == StreamPolicy::Stream ? r.ms1tStream : r.ms1tGather) =
                timeMs(topt, [&] { aqsGemm(w, op, cfg); });
        }
        setStreamPolicy(policy);
        setParallelThreads(pool);
        countLayerPasses(w, op, cfg, r);
        out.push_back(r);
        std::printf("  %-12s %-10s %5zu %5zu %4zu  %9.2f  %9.2f  %9.2f  "
                    "%9.2f  %8.1f  %6llu/%-6llu %s\n",
                    r.model.c_str(), r.layer.c_str(), r.m, r.k, r.n,
                    r.ms1t, r.msPool, r.ms1tStream, r.ms1tGather,
                    r.psPerOp(),
                    static_cast<unsigned long long>(r.streamPasses),
                    static_cast<unsigned long long>(r.gatherPasses),
                    r.parity ? "yes" : "NO");

        x = model.forwardPreparedStep(l, op, offsets).next;
    }
}

/** --shapes: the served llama32_1b stack at one prefill round's
 *  N = 512 and bertBase at a decode-sized N = 8. */
std::vector<ShapeResult>
runShapes(const BenchOptions &opt)
{
    std::vector<ShapeResult> out;
    std::cout << "per-layer aqsGemm on served-model operands (pool "
              << parallelThreads() << ", isa: "
              << toString(activeIsaLevel()) << ", policy: "
              << toString(activeStreamPolicy()) << ")\n";
    std::cout << "  model        layer          M     K    N   ms(1t)  "
                 "ms(pool)  stream-1t  gather-1t  ps/op  "
                 "stream/gather parity\n";
    runModelShapes(opt, llama32_1b(), 512, out);
    runModelShapes(opt, bertBase(), 8, out);
    return out;
}

void
writeShapesJson(std::ostream &out, const std::vector<ShapeResult> &shapes)
{
    out << "  \"shapes\": [\n";
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const ShapeResult &r = shapes[i];
        out << "    {\"model\": \"" << r.model << "\", \"layer\": \""
            << r.layer << "\", \"m\": " << r.m << ", \"k\": " << r.k
            << ", \"n\": " << r.n << ", \"v\": " << r.v
            << ", \"w_levels\": " << r.wLevels
            << ", \"x_levels\": " << r.xLevels
            << ", \"ms_1t\": " << r.ms1t << ", \"ms_pool\": " << r.msPool
            << ", \"ms_1t_stream\": " << r.ms1tStream
            << ", \"ms_1t_gather\": " << r.ms1tGather
            << ", \"executed_outer_products\": " << r.executed
            << ", \"ps_per_op\": " << r.psPerOp()
            << ", \"stream_passes\": " << r.streamPasses
            << ", \"gather_passes\": " << r.gatherPasses
            << ", \"parity\": " << (r.parity ? "true" : "false") << "}"
            << (i + 1 < shapes.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            opt.writeJson = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            opt.writeJson = true;
            opt.jsonPath = arg.substr(7);
        } else if (arg == "--quick") {
            opt.minSeconds = 0.05;
            opt.maxReps = 5;
            opt.quick = true;
        } else if (arg == "--shapes") {
            opt.shapes = true;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        }
    }

    const int pool_threads = parallelThreads();
    const char *isa_active = toString(activeIsaLevel());
    std::cout << "AQS-GEMM kernel bench (pool threads: " << pool_threads
              << ", isa: " << isa_active
              << ", detected: " << toString(detectedIsaLevel()) << ")\n\n";

    if (opt.shapes) {
        const std::vector<ShapeResult> shapes = runShapes(opt);
        bool parity = true;
        for (const ShapeResult &r : shapes)
            parity = parity && r.parity;
        if (opt.writeJson) {
            std::ofstream out(opt.jsonPath);
            if (!out) {
                std::cerr << "cannot write " << opt.jsonPath << "\n";
                return 1;
            }
            out << "{\n  \"bench\": \"kernels_shapes\",\n";
            out << "  \"pool_threads\": " << pool_threads << ",\n";
            out << "  \"hardware_concurrency\": "
                << static_cast<int>(std::thread::hardware_concurrency())
                << ",\n";
            out << "  \"isa\": \"" << isa_active << "\",\n";
            out << "  \"stream_policy\": \""
                << toString(activeStreamPolicy()) << "\",\n";
            out << "  \"parity\": " << (parity ? "true" : "false")
                << ",\n";
            writeShapesJson(out, shapes);
            out << "}\n";
            std::cout << "\nwrote " << opt.jsonPath << "\n";
        }
        return parity ? 0 : 1;
    }

    // --- Old vs new, single-threaded (the apples-to-apples compare) ---
    setParallelThreads(1);
    std::vector<CaseResult> cases;
    std::cout << "single-thread reference vs blocked kernel (isa: "
              << isa_active << ")\n";
    std::cout << "  dim  sparsity  ref-ms   new-ms   GMAC/s(ref)  "
                 "GMAC/s(new)  speedup  parity\n";
    for (std::size_t dim : {128u, 256u, 512u}) {
        for (int sp : {0, 60, 95}) {
            if (dim != 256 && sp != 60)
                continue; // off-diagonal points add little signal
            CaseResult r = runCase(opt, dim, sp);
            cases.push_back(r);
            std::printf(
                "  %4zu  %6d%%  %7.2f  %7.2f  %11.3f  %11.3f  %6.2fx  %s\n",
                r.dim, r.sparsityPct, r.refMs, r.newMs,
                gmacs(r.dim, r.dim, r.dim, r.refMs),
                gmacs(r.dim, r.dim, r.dim, r.newMs), r.speedup(),
                r.parity ? "yes" : "NO");
        }
    }

    // --- Per-ISA single-thread GMAC/s at the 256^3/60% reference case -
    const std::size_t isa_dim = 256;
    std::vector<IsaCase> isa_cases;
    {
        Rng rng(2);
        const std::int32_t zp = 136;
        MatrixI32 w = weightCodes(rng, isa_dim, isa_dim, 0.6);
        MatrixI32 x = actCodes(rng, isa_dim, isa_dim, zp, 0.6);
        AqsConfig cfg;
        MatrixI64 ref;
        bool have_ref = false;

        std::cout << "\nper-ISA blocked kernel, single thread (dim="
                  << isa_dim << ", 60% clustered)\n";
        std::cout << "  isa       ms    GMAC/s   vs-scalar  parity\n";
        double scalar_ms = 0.0;
        for (IsaLevel lvl : runnableIsaLevels()) {
            setIsaLevel(lvl);
            WeightOperand w_op = prepareWeights(w, 1, cfg);
            ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
            if (!have_ref) {
                ref = aqsGemmReference(w_op, x_op, cfg);
                have_ref = true;
            }
            IsaCase c;
            c.level = lvl;
            c.parity = aqsGemm(w_op, x_op, cfg) == ref;
            c.ms = timeMs(opt, [&] { aqsGemm(w_op, x_op, cfg); });
            if (lvl == IsaLevel::Scalar)
                scalar_ms = c.ms;
            isa_cases.push_back(c);
            std::printf("  %-6s %7.2f  %8.3f  %8.2fx  %s\n",
                        toString(lvl), c.ms,
                        gmacs(isa_dim, isa_dim, isa_dim, c.ms),
                        scalar_ms > 0.0 ? scalar_ms / c.ms : 1.0,
                        c.parity ? "yes" : "NO");
        }
        resetIsaLevel();
    }

    // --- Thread scaling of the new kernel ----------------------------
    // A shape large enough that band parallelism dominates pool
    // overhead (512 gives 128 m-bands); each point resizes the pool
    // BEFORE the timed region so the kernel re-enters with the
    // requested width, and records the width the pool actually ran
    // with (on small machines the curve is legitimately flat - the
    // hardware concurrency is in the JSON for that).
    const std::size_t dim = opt.quick ? 256 : 512;
    Rng rng(7);
    const std::int32_t zp = 136;
    MatrixI32 w = weightCodes(rng, dim, dim, 0.6);
    MatrixI32 x = actCodes(rng, dim, dim, zp, 0.6);
    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);

    std::vector<ThreadPoint> scaling;
    std::cout << "\nblocked kernel thread scaling (dim=" << dim
              << ", 60% clustered)\n";
    std::cout << "  threads    ms    speedup-vs-1t\n";
    // The doubling ladder plus the machine's full width: on wide hosts
    // the 8-thread cap used to hide the top of the curve, and on
    // 1-core CI containers pool_threads records that every point
    // legitimately ran at width 1 (the curve is flat, not broken).
    std::vector<int> thread_points{1, 2, 4, 8};
    const int hw =
        static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 8)
        thread_points.push_back(hw);
    double ms_1t = 0.0;
    for (int t : thread_points) {
        setParallelThreads(t);
        ThreadPoint p;
        p.threads = t;
        p.poolThreads = parallelThreads();
        p.ms = timeMs(opt, [&] { aqsGemm(w_op, x_op, cfg); });
        if (t == 1)
            ms_1t = p.ms;
        p.speedupVs1 = ms_1t / p.ms;
        scaling.push_back(p);
        std::printf("  %7d  %7.2f  %10.2fx\n", p.threads, p.ms,
                    p.speedupVs1);
    }
    setParallelThreads(pool_threads);
    // A ladder run on a 1-core host (or with every point clamped to
    // pool width 1) measures nothing about scaling: the threads exist
    // but time-slice one core, so the curve is flat by construction.
    // Label that explicitly instead of letting 1.00x read as "does
    // not scale".
    bool wide_pool = false;
    for (const ThreadPoint &p : scaling)
        wide_pool = wide_pool || p.poolThreads > 1;
    const bool scaling_measured = wide_pool && hw > 1;
    if (!scaling_measured)
        std::printf("  (host has %d hardware thread%s: the flat curve "
                    "is UNMEASURED scaling, not absent scaling)\n",
                    hw, hw == 1 ? "" : "s");

    // --- Context kernels --------------------------------------------
    SlicedMatrix ws = sbrSliceMatrix(w, 1);
    SlicedMatrix xs = sbrSliceMatrix(weightCodes(rng, dim, dim, 0.8), 1);
    double legacy_ms = timeMs(
        opt, [&] { legacyBitsliceGemm(ws, xs, 4, SibiaSkipSide::Auto); });
    double dense_ms = timeMs(opt, [&] { intGemm(w, x); });
    std::printf("\ncontext (dim=%zu, pool=%d): legacy bit-slice %.2f ms, "
                "dense int GEMM %.2f ms\n",
                dim, pool_threads, legacy_ms, dense_ms);

    // --- Preparation stages, serial vs parallel ----------------------
    // The ROADMAP flagged prep as a visible serial fraction of layer
    // time; these columns track the parallel_for speedup of each stage
    // (1 thread vs the full pool).
    std::vector<PrepStage> prep{{"sbr_slice"},
                                {"prepare_weights"},
                                {"prepare_activations"}};
    for (PrepStage &stage : prep) {
        auto run = [&] {
            if (std::strcmp(stage.name, "sbr_slice") == 0)
                sbrSliceMatrix(w, 1);
            else if (std::strcmp(stage.name, "prepare_weights") == 0)
                prepareWeights(w, 1, cfg);
            else
                prepareActivations(x, 1, zp, cfg);
        };
        setParallelThreads(1);
        stage.serialMs = timeMs(opt, run);
        setParallelThreads(pool_threads);
        stage.parallelMs = timeMs(opt, run);
    }
    std::vector<Slice> rle_data(65536 * 4);
    for (std::size_t i = 0; i < 65536; ++i) {
        bool fill = rng.bernoulli(0.8);
        for (int j = 0; j < 4; ++j)
            rle_data[i * 4 + j] =
                fill ? 10 : static_cast<Slice>(rng.uniformInt(0, 15));
    }
    double rle_ms = timeMs(
        opt, [&] { RleStream::encode(rle_data, 65536, 4, 10, 4); });
    std::printf("prep (dim=%zu, pool=%d):\n", dim, pool_threads);
    for (const PrepStage &stage : prep)
        std::printf("  %-20s serial %7.2f ms  parallel %7.2f ms  "
                    "speedup %5.2fx\n",
                    stage.name, stage.serialMs, stage.parallelMs,
                    stage.speedup());
    std::printf("  single RLE stream (64Ki vectors): %.2f ms\n", rle_ms);

    bool all_parity = true;
    for (const CaseResult &r : cases)
        all_parity = all_parity && r.parity;
    for (const IsaCase &c : isa_cases)
        all_parity = all_parity && c.parity;

    if (opt.writeJson) {
        std::ofstream out(opt.jsonPath);
        if (!out) {
            std::cerr << "cannot write " << opt.jsonPath << "\n";
            return 1;
        }
        out << "{\n  \"bench\": \"kernels\",\n";
        out << "  \"pool_threads\": " << pool_threads << ",\n";
        out << "  \"isa\": \"" << isa_active << "\",\n";
        out << "  \"isa_detected\": \"" << toString(detectedIsaLevel())
            << "\",\n";
        out << "  \"vnni_available\": "
            << (supportedIsaCap() >= IsaLevel::Avx512Vnni ? "true"
                                                          : "false")
            << ",\n";
        out << "  \"stream_policy\": \""
            << toString(activeStreamPolicy()) << "\",\n";
        out << "  \"parity\": " << (all_parity ? "true" : "false")
            << ",\n";
        out << "  \"single_thread_cases\": [\n";
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const CaseResult &r = cases[i];
            out << "    {\"m\": " << r.dim << ", \"k\": " << r.dim
                << ", \"n\": " << r.dim
                << ", \"sparsity_pct\": " << r.sparsityPct
                << ", \"reference_ms\": " << r.refMs
                << ", \"blocked_ms\": " << r.newMs
                << ", \"reference_gmacs\": "
                << gmacs(r.dim, r.dim, r.dim, r.refMs)
                << ", \"blocked_gmacs\": "
                << gmacs(r.dim, r.dim, r.dim, r.newMs)
                << ", \"speedup\": " << r.speedup()
                << ", \"parity\": " << (r.parity ? "true" : "false")
                << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"isa_cases\": [\n";
        for (std::size_t i = 0; i < isa_cases.size(); ++i) {
            const IsaCase &c = isa_cases[i];
            out << "    {\"isa\": \"" << toString(c.level)
                << "\", \"m\": " << isa_dim << ", \"k\": " << isa_dim
                << ", \"n\": " << isa_dim << ", \"sparsity_pct\": 60"
                << ", \"ms\": " << c.ms << ", \"gmacs\": "
                << gmacs(isa_dim, isa_dim, isa_dim, c.ms)
                << ", \"speedup_vs_scalar\": "
                << (isa_cases.front().ms / c.ms)
                << ", \"parity\": " << (c.parity ? "true" : "false")
                << "}" << (i + 1 < isa_cases.size() ? "," : "") << "\n";
        }
        // thread_scaling_measured: false when the host cannot run the
        // ladder's threads concurrently (1 hardware core, or every
        // point clamped to pool width 1) - consumers must label or
        // skip the flat curve rather than plot it as real scaling.
        out << "  ],\n  \"thread_scaling_measured\": "
            << (scaling_measured ? "true" : "false") << ",\n";
        out << "  \"thread_scaling\": [\n";
        for (std::size_t i = 0; i < scaling.size(); ++i) {
            const ThreadPoint &p = scaling[i];
            out << "    {\"threads\": " << p.threads
                << ", \"pool_threads\": " << p.poolThreads
                << ", \"dim\": " << dim << ", \"ms\": " << p.ms
                << ", \"gmacs\": " << gmacs(dim, dim, dim, p.ms)
                << ", \"speedup_vs_1t\": " << p.speedupVs1 << "}"
                << (i + 1 < scaling.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        out << "  \"hardware_concurrency\": "
            << static_cast<int>(std::thread::hardware_concurrency())
            << ",\n";
        out << "  \"context\": {\"legacy_bitslice_ms\": " << legacy_ms
            << ", \"dense_int_gemm_ms\": " << dense_ms << "},\n";
        out << "  \"prep\": {\n";
        for (std::size_t i = 0; i < prep.size(); ++i) {
            const PrepStage &stage = prep[i];
            out << "    \"" << stage.name << "\": {\"serial_ms\": "
                << stage.serialMs << ", \"parallel_ms\": "
                << stage.parallelMs << ", \"speedup\": "
                << stage.speedup() << "},\n";
        }
        out << "    \"rle_encode_ms\": " << rle_ms << "\n  }\n";
        out << "}\n";
        std::cout << "\nwrote " << opt.jsonPath << "\n";
    }

    return all_parity ? 0 : 1;
}
