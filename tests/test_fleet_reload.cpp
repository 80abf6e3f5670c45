/**
 * @file
 * Hot-reload tests for the fleet tier: atomically swapping a new
 * .pncm compiled-model version under a live router. The contract:
 * requests admitted BEFORE the swap complete on (and bit-match solo
 * runs of) the old version, requests admitted after carry the new
 * version and match ITS solo runs, the version boundary is monotone
 * in submission order, and no request ever observes a torn model -
 * every completed output equals exactly one version's reference,
 * never a mixture. Both versions are served from read-only mmapped
 * .pncm files, the deployment artifact replicas actually share.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "panacea/fleet.h"
#include "panacea/runtime.h"
#include "panacea/serialize.h"
#include "panacea/session.h"
#include "util/random.h"

namespace panacea {
namespace {

ModelSpec
tinySpec(const std::string &name)
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

/** Unique scratch directory, removed on destruction. */
struct TempDir
{
    std::filesystem::path path;
    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("panacea_fleet_reload_" + std::to_string(::getpid()) +
                "_" + std::to_string(counter()++));
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }
    static int &
    counter()
    {
        static int c = 0;
        return c;
    }
};

std::vector<MatrixF>
makeInputs(std::size_t features, std::size_t count)
{
    Rng rng(0x4e10);
    std::vector<MatrixF> inputs;
    inputs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        MatrixF x(features, 4);
        for (auto &v : x.data())
            v = static_cast<float>(rng.gaussian(0.2, 1.0));
        inputs.push_back(std::move(x));
    }
    return inputs;
}

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

/** Two genuinely different versions of the SAME model name, both
 *  round-tripped through mmapped .pncm files. */
struct TwoVersions
{
    TempDir dir;
    CompiledModel old_model;
    CompiledModel new_model;

    explicit TwoVersions(const ModelSpec &spec)
    {
        CompileOptions old_opts;
        CompileOptions new_opts;
        new_opts.seed = old_opts.seed + 1; // different weights
        const std::string old_path = dir.file("v1.pncm");
        const std::string new_path = dir.file("v2.pncm");
        saveCompiledModel(compileModel(spec, old_opts), old_path);
        saveCompiledModel(compileModel(spec, new_opts), new_path);
        old_model = loadCompiledModel(old_path);
        new_model = loadCompiledModel(new_path);
    }
};

TEST(FleetReload, PausedSwapBoundaryIsExactAndVersionTagged)
{
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-reload-paused");
    TwoVersions v(spec);
    const std::vector<MatrixF> inputs = makeInputs(v.old_model.inputFeatures(), 8);
    const std::vector<InferenceResult> solo_old =
        soloRun(rt, v.old_model, inputs);
    const std::vector<InferenceResult> solo_new =
        soloRun(rt, v.new_model, inputs);
    // The two versions must actually disagree, or the parity checks
    // below prove nothing.
    bool differ = false;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        differ = differ || !(solo_old[i].output == solo_new[i].output);
    ASSERT_TRUE(differ);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.startPaused = true;
    fopts.engine.workers = 1;
    Fleet fleet = rt.createFleet(fopts);
    const std::uint64_t ver_old = fleet.deploy(v.old_model);

    // First half admitted under the old version, swap, second half
    // under the new - all while paused, so the admission boundary is
    // exactly between submissions 3 and 4 regardless of timing.
    std::vector<std::future<FleetResult>> futs;
    for (std::size_t i = 0; i < 4; ++i)
        futs.push_back(fleet.submit(spec.name, inputs[i]));
    const std::uint64_t ver_new = fleet.reload(v.new_model);
    EXPECT_GT(ver_new, ver_old);
    for (std::size_t i = 4; i < 8; ++i)
        futs.push_back(fleet.submit(spec.name, inputs[i]));
    fleet.start();
    fleet.drain();

    for (std::size_t i = 0; i < 8; ++i) {
        FleetResult r = futs[i].get();
        ASSERT_EQ(r.outcome, FleetOutcome::Completed)
            << "i=" << i << ": " << r.rejectReason;
        const bool pre_swap = i < 4;
        EXPECT_EQ(r.modelVersion, pre_swap ? ver_old : ver_new)
            << "i=" << i;
        const MatrixF &want =
            pre_swap ? solo_old[i].output : solo_new[i].output;
        EXPECT_TRUE(r.result.output == want) << "i=" << i;
    }
    EXPECT_EQ(fleet.stats().reloads, 1u);
}

TEST(FleetReload, LiveSwapUnderTrafficIsMonotoneAndNeverTorn)
{
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-reload-live");
    TwoVersions v(spec);
    const std::vector<MatrixF> inputs = makeInputs(v.old_model.inputFeatures(), 6);
    const std::vector<InferenceResult> solo_old =
        soloRun(rt, v.old_model, inputs);
    const std::vector<InferenceResult> solo_new =
        soloRun(rt, v.new_model, inputs);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.engine.workers = 1;
    Fleet fleet = rt.createFleet(fopts);
    const std::uint64_t ver_old = fleet.deploy(v.old_model);

    // A live stream: a submitter thread feeds requests while the main
    // thread hot-swaps mid-stream. Wherever the boundary lands, every
    // completed request must match ITS version's solo reference.
    constexpr int kTotal = 30;
    std::vector<std::size_t> picks;
    std::vector<std::future<FleetResult>> futs;
    picks.reserve(kTotal);
    futs.reserve(kTotal);
    std::uint64_t ver_new = 0;
    std::thread submitter([&] {
        for (int i = 0; i < kTotal; ++i) {
            const std::size_t pick =
                static_cast<std::size_t>(i) % inputs.size();
            picks.push_back(pick);
            futs.push_back(fleet.submit(spec.name, inputs[pick]));
            std::this_thread::sleep_for(
                std::chrono::microseconds(300));
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    ver_new = fleet.reload(v.new_model);
    submitter.join();
    fleet.drain();

    bool saw_new = false;
    int completed = 0;
    for (int i = 0; i < kTotal; ++i) {
        FleetResult r = futs[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, FleetOutcome::Completed)
            << "i=" << i << ": " << r.rejectReason;
        ++completed;
        ASSERT_TRUE(r.modelVersion == ver_old ||
                    r.modelVersion == ver_new)
            << "i=" << i << " version=" << r.modelVersion;
        // Monotone boundary in submission order: once a request is
        // admitted under the new version, no later one is old.
        if (r.modelVersion == ver_new)
            saw_new = true;
        else
            EXPECT_FALSE(saw_new) << "old version after new, i=" << i;
        // Never torn: the output equals exactly the reference of the
        // version the router says it ran on.
        const std::size_t pick = picks[static_cast<std::size_t>(i)];
        const MatrixF &want = r.modelVersion == ver_old
                                  ? solo_old[pick].output
                                  : solo_new[pick].output;
        EXPECT_TRUE(r.result.output == want) << "i=" << i;
    }
    EXPECT_EQ(completed, kTotal); // zero lost under the swap
    const FleetStats s = fleet.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kTotal));
    EXPECT_EQ(s.completed + s.rejected, s.submitted);
    EXPECT_EQ(s.reloads, 1u);
}

TEST(FleetReload, ReplicasServeTheMmappedArtifactInPlace)
{
    Runtime rt;
    const ModelSpec spec = tinySpec("fleet-reload-mmap");
    TwoVersions v(spec);
    // The deployment artifact really is the zero-copy path: the
    // loaded models are backed by read-only mappings, so N replicas
    // serving them share one set of physical weight pages.
    EXPECT_GT(v.old_model.mappedBytes(), 0u);
    EXPECT_GT(v.new_model.mappedBytes(), 0u);

    const std::vector<MatrixF> inputs = makeInputs(v.old_model.inputFeatures(), 4);
    const std::vector<InferenceResult> solo_old =
        soloRun(rt, v.old_model, inputs);

    FleetOptions fopts;
    fopts.replicas = 3;
    fopts.engine.workers = 1;
    Fleet fleet = rt.createFleet(fopts);
    fleet.deploy(v.old_model);
    std::vector<std::future<FleetResult>> futs;
    for (const MatrixF &x : inputs)
        futs.push_back(fleet.submit(spec.name, x));
    fleet.drain();
    for (std::size_t i = 0; i < futs.size(); ++i) {
        FleetResult r = futs[i].get();
        ASSERT_EQ(r.outcome, FleetOutcome::Completed);
        EXPECT_TRUE(r.result.output == solo_old[i].output);
    }
}

} // namespace
} // namespace panacea
