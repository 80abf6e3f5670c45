/**
 * @file
 * Compiled-model serialization tests: the on-disk format must be a
 * faithful, versioned, integrity-checked image of the prepared state.
 *
 *  - round trip: save -> load -> save reproduces IDENTICAL bytes, and
 *    the loaded model produces byte-identical outputs and AqsStats to
 *    the freshly built one at every runnable ISA level;
 *  - rejection: wrong magic, unknown format version, checksum
 *    mismatch, truncation at any boundary, trailing bytes and
 *    fingerprint mismatches all throw SerializeError - a load never
 *    returns a half-built model;
 *  - disk tier: a cold PreparedModelCache pointed at a directory a
 *    warm cache populated serves the model with ZERO builds
 *    (CacheStats::misses == 0, diskHits == 1) and bit-equal behaviour;
 *  - fresh processes: two concurrent child processes that mmap the
 *    saved file serve outputs byte-identical to the in-process build;
 *  - hostile files: a checksum-restamped file with an out-of-range
 *    plane shift, an out-of-range slice byte, or an HO mask bit set on
 *    a nonzero weight vector or cleared on an all-zero one is rejected
 *    at load, and seeded bit flips,
 *    truncations and directory edits either throw SerializeError or
 *    load and serve without crashing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "isa_guard.h"
#include "panacea/compiled_model.h"
#include "panacea/serialize.h"
#include "serve/model_serialize.h"
#include "serve/operand_cache.h"
#include "util/cpu_features.h"
#include "util/fnv.h"
#include "util/random.h"

extern char **environ;

namespace panacea {
namespace {

/** Three layers over distinct distributions + a feature-width bend. */
ModelSpec
tinySpec()
{
    ModelSpec spec;
    spec.name = "serialize-test-tiny";
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Unique scratch directory, removed on destruction. */
struct TempDir
{
    std::filesystem::path path;
    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("panacea_serialize_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
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

void
expectStatsEqual(const AqsStats &a, const AqsStats &b)
{
    EXPECT_EQ(a.denseOuterProducts, b.denseOuterProducts);
    EXPECT_EQ(a.executedOuterProducts, b.executedOuterProducts);
    EXPECT_EQ(a.skippedOuterProducts, b.skippedOuterProducts);
    EXPECT_EQ(a.mults, b.mults);
    EXPECT_EQ(a.adds, b.adds);
    EXPECT_EQ(a.compMults, b.compMults);
    EXPECT_EQ(a.compAdds, b.compAdds);
    EXPECT_EQ(a.compExtraEmaNibbles, b.compExtraEmaNibbles);
    EXPECT_EQ(a.wNibbles, b.wNibbles);
    EXPECT_EQ(a.xNibbles, b.xNibbles);
    EXPECT_EQ(a.wIndexBits, b.wIndexBits);
    EXPECT_EQ(a.xIndexBits, b.xIndexBits);
    EXPECT_EQ(a.denseNibbles, b.denseNibbles);
    EXPECT_DOUBLE_EQ(a.macsPerOuterProduct, b.macsPerOuterProduct);
}

std::uint32_t
fieldU32(const std::string &bytes, std::size_t off)
{
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
}

std::uint64_t
fieldU64(const std::string &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
}

void
setU64(std::string &bytes, std::size_t off, std::uint64_t v)
{
    std::memcpy(bytes.data() + off, &v, sizeof(v));
}

/** Re-stamp the file checksum (offset 16, striped FNV over [24, end)),
 *  so a crafted edit reaches the structural validators behind it. */
void
restampChecksum(std::string &bytes)
{
    setU64(bytes, 16,
           fnv1a64Striped(bytes.data() + 24, bytes.size() - 24));
}

/** Forge a retired envelope: a current file with its version field
 *  set to `version` (1: the copying stream; 2: the sectioned format
 *  that also stored RLE streams). */
std::string
forgeVersion(std::string bytes, std::uint32_t version)
{
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    return bytes;
}

/** One deterministic request through a model's stack. */
serve::ServedModel::BatchResult
runOnce(const serve::ServedModel &model)
{
    Rng rng(0xf00d);
    MatrixF x(model.inputFeatures(), 8);
    for (auto &v : x.data())
        v = static_cast<float>(rng.gaussian(0.2, 1.0));
    const std::size_t offsets[] = {0, 2};
    return model.runPrepared(model.prepareInput(x), offsets);
}

TEST(ModelSerialize, RoundTripIsByteIdenticalAndBitExactAcrossIsa)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel fresh = compileModel(spec, opts);

    const std::string path_a = dir.file("a.pncm");
    saveCompiledModel(fresh, path_a);
    const CompiledModel loaded = loadCompiledModel(path_a);

    // save -> load -> save: identical bytes.
    const std::string path_b = dir.file("b.pncm");
    saveCompiledModel(loaded, path_b);
    const std::string bytes_a = readFile(path_a);
    const std::string bytes_b = readFile(path_b);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);

    // Identity of everything observable.
    EXPECT_EQ(loaded.key(), fresh.key());
    EXPECT_EQ(loaded.layerCount(), fresh.layerCount());
    EXPECT_EQ(loaded.inputFeatures(), fresh.inputFeatures());
    EXPECT_EQ(loaded.outputFeatures(), fresh.outputFeatures());
    EXPECT_EQ(loaded.macsPerColumn(), fresh.macsPerColumn());
    EXPECT_DOUBLE_EQ(loaded.buildMs(), fresh.buildMs());

    // The loaded model is behaviourally byte-identical at every ISA
    // level - outputs AND statistics.
    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        const auto ref = runOnce(*fresh.shared());
        const auto got = runOnce(*loaded.shared());
        EXPECT_TRUE(got.output == ref.output)
            << "outputs diverge at isa=" << toString(isa);
        ASSERT_EQ(got.perRequest.size(), ref.perRequest.size());
        for (std::size_t i = 0; i < ref.perRequest.size(); ++i)
            expectStatsEqual(got.perRequest[i], ref.perRequest[i]);
    }
}

TEST(ModelSerialize, FingerprintMismatchIsRejected)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);

    // The right (spec, opts) loads...
    EXPECT_NO_THROW(loadCompiledModelFor(path, spec, opts));

    // ...anything that changes the prepared bytes does not.
    CompileOptions other_opts = opts;
    other_opts.seed += 1;
    EXPECT_THROW(loadCompiledModelFor(path, spec, other_opts),
                 SerializeError);
    ModelSpec other_spec = spec;
    other_spec.layers[0].kDim += 4;
    EXPECT_THROW(loadCompiledModelFor(path, other_spec, opts),
                 SerializeError);

    // A tampered stored key no longer matches the body fingerprint.
    std::string bytes = readFile(path);
    const std::size_t key_payload = 8 + 8; // magic+version, key length
    ASSERT_GT(bytes.size(), key_payload + 1);
    bytes[key_payload] ^= 0x01; // first key character
    const std::string tampered = dir.file("tampered.pncm");
    writeFile(tampered, bytes);
    EXPECT_THROW(loadCompiledModel(tampered), SerializeError);
}

TEST(ModelSerialize, VersionMagicChecksumAndTruncationAreRejected)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    opts.maxLayers = 1; // small file: truncation sweep stays cheap
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string good = readFile(path);
    ASSERT_GT(good.size(), 32u);

    const auto expectRejected = [&](std::string bytes,
                                    const char *what) {
        const std::string p = dir.file("bad.pncm");
        writeFile(p, bytes);
        EXPECT_THROW(loadCompiledModel(p), SerializeError) << what;
    };

    // Magic.
    {
        std::string bad = good;
        bad[0] = 'X';
        expectRejected(bad, "magic");
    }
    // Unknown format version, and the retired v1 and v2 formats.
    {
        std::string bad = good;
        bad[4] = static_cast<char>(bad[4] + 1);
        expectRejected(bad, "version");
        expectRejected(forgeVersion(good, 1), "retired v1");
        expectRejected(forgeVersion(good, 2), "retired v2");
    }
    // Payload corruption -> checksum mismatch.
    {
        std::string bad = good;
        bad[good.size() / 2] ^= 0x40;
        expectRejected(bad, "checksum");
    }
    // Checksum corruption itself.
    {
        std::string bad = good;
        bad[good.size() - 1] ^= 0x01;
        expectRejected(bad, "trailer");
    }
    // Truncation at every kind of boundary: inside the envelope,
    // inside the payload, and just shy of the full file.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{3}, std::size_t{8},
          std::size_t{15}, good.size() / 3, good.size() / 2,
          good.size() - 9, good.size() - 1}) {
        expectRejected(good.substr(0, cut), "truncation");
    }
    // Trailing garbage after a valid image.
    expectRejected(good + std::string(4, '\0'), "trailing bytes");

    // Missing file.
    EXPECT_THROW(loadCompiledModel(dir.file("absent.pncm")),
                 SerializeError);

    // The original still loads after all that.
    EXPECT_NO_THROW(loadCompiledModel(path));
}

TEST(ModelSerialize, DiskTierServesColdStartWithZeroBuilds)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;

    // Warm process: builds once, writes through to disk.
    serve::PreparedModelCache warm;
    warm.setDiskDir(dir.path.string());
    auto built = warm.acquire(spec, opts);
    EXPECT_EQ(warm.stats().misses, 1u);
    EXPECT_EQ(warm.stats().diskHits, 0u);
    const std::string file =
        (dir.path / serve::compiledModelFileName(built->key())).string();
    EXPECT_TRUE(std::filesystem::exists(file));

    // Cold process (fresh cache object): the file is found, decoded,
    // and NOTHING is built - the zero-preparation cold start.
    serve::PreparedModelCache cold;
    cold.setDiskDir(dir.path.string());
    auto loaded = cold.acquire(spec, opts);
    const auto cstats = cold.stats();
    EXPECT_EQ(cstats.misses, 0u) << "cold start rebuilt the model";
    EXPECT_EQ(cstats.diskHits, 1u);
    EXPECT_EQ(cstats.hits, 0u);
    EXPECT_GT(cstats.buildMsSaved, 0.0);
    EXPECT_GE(cstats.loadMsTotal, 0.0);

    // Same behaviour, bit for bit.
    const auto ref = runOnce(*built);
    const auto got = runOnce(*loaded);
    EXPECT_TRUE(got.output == ref.output);
    for (std::size_t i = 0; i < ref.perRequest.size(); ++i)
        expectStatsEqual(got.perRequest[i], ref.perRequest[i]);

    // Second acquire in the cold cache: memory hit, no extra disk I/O.
    cold.acquire(spec, opts);
    EXPECT_EQ(cold.stats().hits, 1u);
    EXPECT_EQ(cold.stats().diskHits, 1u);

    // A corrupt file degrades to a rebuild, never a failure.
    std::string bytes = readFile(file);
    bytes[bytes.size() / 2] ^= 0x10;
    writeFile(file, bytes);
    serve::PreparedModelCache recover;
    recover.setDiskDir(dir.path.string());
    auto rebuilt = recover.acquire(spec, opts);
    EXPECT_EQ(recover.stats().misses, 1u);
    EXPECT_EQ(recover.stats().diskHits, 0u);
    EXPECT_TRUE(runOnce(*rebuilt).output == ref.output);
}

TEST(ModelSerialize, SectionDirectoryIsAlignedAndCoversFile)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 32u);

    // Envelope: magic, current version, declared size == actual size.
    EXPECT_EQ(bytes.substr(0, 4), "PNCM");
    EXPECT_EQ(fieldU32(bytes, 4), kCompiledModelFormatVersion);
    EXPECT_EQ(fieldU64(bytes, 8), bytes.size());

    // Directory: 1 META section + 4 bulk sections per layer, offsets
    // 64-byte aligned, ascending, non-overlapping, in bounds, and the
    // last section ends exactly at the declared file size (no slack a
    // mapped reader could silently run past).
    const std::uint64_t sections = fieldU64(bytes, 24);
    EXPECT_EQ(sections, 1u + 4u * model.layerCount());
    const std::size_t dir_end = 32 + sections * 16;
    ASSERT_LT(dir_end, bytes.size());
    std::uint64_t prev_end = dir_end;
    for (std::uint64_t s = 0; s < sections; ++s) {
        const std::uint64_t off = fieldU64(bytes, 32 + s * 16);
        const std::uint64_t size = fieldU64(bytes, 32 + s * 16 + 8);
        EXPECT_EQ(off % 64, 0u) << "section " << s << " misaligned";
        EXPECT_GE(off, prev_end) << "section " << s << " overlaps";
        EXPECT_LE(off + size, bytes.size()) << "section " << s;
        // Alignment gaps are zero-filled - the bytes are a pure
        // function of the prepared state, nothing leaks in.
        for (std::uint64_t p = prev_end; p < off; ++p)
            ASSERT_EQ(bytes[p], '\0') << "gap byte " << p;
        prev_end = off + size;
    }
    EXPECT_EQ(prev_end, bytes.size()) << "last section must end at EOF";
}

TEST(ModelSerialize, MappedAndCopyingLoadsAreBitExactAcrossIsa)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel fresh = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(fresh, path);

    // allow_mmap=true serves the weights from the mapping; the
    // copying decode of the SAME file owns everything.
    const CompiledModel mapped = loadCompiledModel(path, true);
    const CompiledModel copied = loadCompiledModel(path, false);
    EXPECT_GT(mapped.mappedBytes(), 0u);
    EXPECT_EQ(mapped.mappedBytes(), std::filesystem::file_size(path));
    EXPECT_EQ(copied.mappedBytes(), 0u);

    // PANACEA_MMAP=0 is the operational kill switch: it wins over the
    // caller and forces the copying decode.
    ::setenv("PANACEA_MMAP", "0", 1);
    const CompiledModel killed = loadCompiledModel(path, true);
    ::unsetenv("PANACEA_MMAP");
    EXPECT_EQ(killed.mappedBytes(), 0u);

    // All three serve bit-identically to the fresh build at every
    // runnable ISA level - outputs AND statistics.
    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        const auto ref = runOnce(*fresh.shared());
        for (const CompiledModel *m : {&mapped, &copied, &killed}) {
            const auto got = runOnce(*m->shared());
            EXPECT_TRUE(got.output == ref.output)
                << "outputs diverge at isa=" << toString(isa);
            ASSERT_EQ(got.perRequest.size(), ref.perRequest.size());
            for (std::size_t i = 0; i < ref.perRequest.size(); ++i)
                expectStatsEqual(got.perRequest[i], ref.perRequest[i]);
        }
    }
}

TEST(ModelSerialize, SweepKeepsEveryReadableVersion)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    opts.maxLayers = 1;
    const CompiledModel model = compileModel(spec, opts);

    // One current artifact, retired v1 and v2 envelopes, one from the
    // future, one corrupt, one unrelated file.
    saveCompiledModel(model, dir.file("current.pncm"));
    const std::string current = readFile(dir.file("current.pncm"));
    writeFile(dir.file("v1.pncm"), forgeVersion(current, 1));
    writeFile(dir.file("v2.pncm"), forgeVersion(current, 2));
    std::string future = current;
    future[4] = static_cast<char>(future[4] + 55);
    writeFile(dir.file("future.pncm"), future);
    writeFile(dir.file("garbage.pncm"), "not a compiled model");
    writeFile(dir.file("notes.txt"), "ignored: wrong extension");
    EXPECT_THROW(loadCompiledModel(dir.file("v1.pncm")), SerializeError);
    EXPECT_THROW(loadCompiledModel(dir.file("v2.pncm")), SerializeError);

    const serve::CacheDirReport report =
        serve::sweepCompiledModelDir(dir.path.string());
    EXPECT_EQ(report.scanned, 5u);
    EXPECT_EQ(report.staleVersion, 3u);
    EXPECT_EQ(report.corrupt, 1u);
    EXPECT_EQ(report.evicted, 0u);

    // The sweep keeps the one readable version - v1 and v2 are stale
    // like any other unreadable version - and ignores non-.pncm files.
    EXPECT_TRUE(std::filesystem::exists(dir.file("current.pncm")));
    EXPECT_FALSE(std::filesystem::exists(dir.file("v1.pncm")));
    EXPECT_FALSE(std::filesystem::exists(dir.file("v2.pncm")));
    EXPECT_FALSE(std::filesystem::exists(dir.file("future.pncm")));
    EXPECT_FALSE(std::filesystem::exists(dir.file("garbage.pncm")));
    EXPECT_TRUE(std::filesystem::exists(dir.file("notes.txt")));
    EXPECT_NO_THROW(loadCompiledModel(dir.file("current.pncm")));
}

/** Child mode of ConcurrentMappedLoadersMatchTheFreshBuild: the value
 *  is "<model path>|<report path>". */
constexpr const char *kMappedLoadChildEnv = "PANACEA_TEST_MAPPED_LOAD";

/**
 * Runs only in a child process spawned by the test below: mmap-load
 * the model, serve runOnce(), and write {u64 mappedBytes, u64 rows,
 * u64 cols, float output[rows*cols]} to the report file.
 */
TEST(ModelSerialize, MappedLoadChild)
{
    const char *arg = std::getenv(kMappedLoadChildEnv);
    if (arg == nullptr)
        GTEST_SKIP() << "child mode; spawned by "
                        "ConcurrentMappedLoadersMatchTheFreshBuild";
    const std::string spec(arg);
    const std::size_t bar = spec.find('|');
    ASSERT_NE(bar, std::string::npos) << spec;
    const CompiledModel model = loadCompiledModel(spec.substr(0, bar));
    const auto got = runOnce(*model.shared());
    std::string report(24, '\0');
    setU64(report, 0, model.mappedBytes());
    setU64(report, 8, got.output.rows());
    setU64(report, 16, got.output.cols());
    report.append(reinterpret_cast<const char *>(got.output.data().data()),
                  got.output.size() * sizeof(float));
    writeFile(spec.substr(bar + 1), report);
}

/** posix_spawn this test binary on one test with one extra env var. */
pid_t
spawnSelf(const std::string &filter, const std::string &env_kv)
{
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e)
        env.emplace_back(*e);
    env.push_back(env_kv);
    std::vector<char *> envp;
    for (std::string &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);
    std::string exe = "/proc/self/exe";
    std::string flag = "--gtest_filter=" + filter;
    char *argv[] = {exe.data(), flag.data(), nullptr};
    pid_t pid = -1;
    if (::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv,
                      envp.data()) != 0)
        return -1;
    return pid;
}

/**
 * Cold start in fresh processes: save a freshly built model, then two
 * CONCURRENT child processes each mmap-load the file and serve one
 * request. Both must report a mapped load, and both outputs must be
 * byte-identical to the parent's in-process build. Children are
 * spawned, not forked: the persistent pool's workers do not survive
 * a fork.
 */
TEST(ModelSerialize, ConcurrentMappedLoadersMatchTheFreshBuild)
{
    TempDir dir;
    const CompiledModel fresh = compileModel(tinySpec(), {});
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(fresh, path);
    const auto ref = runOnce(*fresh.shared());

    std::vector<std::string> reports;
    std::vector<pid_t> pids;
    for (int i = 0; i < 2; ++i) {
        reports.push_back(dir.file("child" + std::to_string(i)));
        pids.push_back(spawnSelf("ModelSerialize.MappedLoadChild",
                                 std::string(kMappedLoadChildEnv) + "=" +
                                     path + "|" + reports.back()));
        ASSERT_GT(pids.back(), 0) << "posix_spawn failed";
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "child " << pid << " failed (status " << status << ")";
    }
    const std::string want(
        reinterpret_cast<const char *>(ref.output.data().data()),
        ref.output.size() * sizeof(float));
    for (const std::string &r : reports) {
        const std::string report = readFile(r);
        ASSERT_GE(report.size(), 24u) << r;
        EXPECT_GT(fieldU64(report, 0), 0u) << r << ": load did not mmap";
        EXPECT_EQ(fieldU64(report, 8), ref.output.rows());
        EXPECT_EQ(fieldU64(report, 16), ref.output.cols());
        EXPECT_TRUE(report.substr(24) == want)
            << r << ": output differs from the fresh build";
    }
}

/**
 * The META offset of layer 0's first plane head: {i32 shift, u8 high}
 * records follow the layer's u64 rows and cols. A 7-bit layer has the
 * two SBR planes {0, LO} and {3, HO}, so the 26-byte pattern is unique.
 */
std::size_t
firstPlaneHead(const std::string &bytes, std::uint64_t rows,
               std::uint64_t cols)
{
    std::string pat(16, '\0');
    setU64(pat, 0, rows);
    setU64(pat, 8, cols);
    pat += std::string("\0\0\0\0\0\x03\0\0\0\x01", 10);
    const std::size_t at = bytes.find(pat);
    return at == std::string::npos ? at : at + 16;
}

TEST(ModelSerialize, OutOfRangePlaneShiftIsRejectedAtLoad)
{
    TempDir dir;
    CompileOptions opts;
    opts.maxLayers = 1;
    const ModelSpec spec = tinySpec();
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string good = readFile(path);
    const std::size_t head =
        firstPlaneHead(good, spec.layers[0].m, spec.layers[0].kDim);
    ASSERT_NE(head, std::string::npos);

    // Plane 1 (the HO plane) shift: a shift count of 64 or -1 would be
    // UB in the GEMM's `<< shift`; the loader must refuse it first,
    // on both the mapped and the copying path.
    for (std::int32_t shift : {64, -1}) {
        std::string bad = good;
        std::memcpy(bad.data() + head + 5, &shift, sizeof(shift));
        restampChecksum(bad);
        const std::string p = dir.file("shift.pncm");
        writeFile(p, bad);
        EXPECT_THROW(loadCompiledModel(p, true), SerializeError)
            << "shift " << shift;
        EXPECT_THROW(loadCompiledModel(p, false), SerializeError)
            << "shift " << shift;
    }
    // A HO flag moved to the LO plane is rejected the same way.
    std::string bad = good;
    bad[head + 4] = 1;
    restampChecksum(bad);
    std::istringstream in(bad);
    EXPECT_THROW(serve::readServedModel(in), SerializeError);
}

/**
 * Bulk bytes the structural checks cannot see: a weight slice outside
 * SBR's [-8, 7] (which breaks the quad kernels' |w| <= 8 bound), an HO
 * mask bit set on a nonzero weight vector (whose quads a listed pass
 * would skip), and an HO mask bit cleared on an all-zero weight vector
 * (the outputs stay exact, but every traffic counter is derived from
 * the mask). Each, checksum-restamped, must throw at load.
 */
TEST(ModelSerialize, OutOfRangeSliceAndWrongHoMaskAreRejected)
{
    TempDir dir;
    CompileOptions opts;
    opts.maxLayers = 1;
    const ModelSpec spec = tinySpec();
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string good = readFile(path);
    // Layer 0's sections follow META: slice planes (LO, then HO; M x K
    // each), total codes, HO mask ((M/v) x K), folded bias.
    const auto section_offset = [&](std::size_t s) {
        return static_cast<std::size_t>(fieldU64(good, 32 + 16 * s));
    };
    const std::size_t planes = section_offset(1);
    const std::size_t mask = section_offset(3);
    const std::size_t m = spec.layers[0].m, kk = spec.layers[0].kDim;
    const std::size_t v = 4;
    const auto expectRejected = [](std::string bad, const char *what) {
        restampChecksum(bad);
        std::istringstream in(bad);
        EXPECT_THROW(serve::readServedModel(in), SerializeError) << what;
    };

    std::string bad = good;
    bad[planes] = 0x40;
    expectRejected(bad, "slice byte 0x40");

    // The first mask byte of an HO vector that is dense (some slice
    // nonzero) or all-zero.
    const std::size_t ho = planes + m * kk;
    const auto find_vector = [&](bool want_nonzero) {
        for (std::size_t g = 0; g < m / v; ++g)
            for (std::size_t k = 0; k < kk; ++k) {
                bool nonzero = false;
                for (std::size_t i = 0; i < v; ++i)
                    nonzero = nonzero ||
                              good[ho + (g * v + i) * kk + k] != 0;
                if (nonzero == want_nonzero)
                    return mask + g * kk + k;
            }
        return std::string::npos;
    };
    const std::size_t dense_at = find_vector(true);
    ASSERT_NE(dense_at, std::string::npos) << "no dense HO vector";
    ASSERT_EQ(good[dense_at], 0);
    bad = good;
    bad[dense_at] = 1;
    expectRejected(bad, "mask bit on a nonzero vector");

    const std::size_t zero_at = find_vector(false);
    ASSERT_NE(zero_at, std::string::npos) << "no all-zero HO vector";
    ASSERT_EQ(good[zero_at], 1);
    bad = good;
    bad[zero_at] = 0;
    expectRejected(bad, "mask bit cleared on an all-zero vector");

    // The untouched image still loads.
    std::istringstream in(good);
    EXPECT_NO_THROW(serve::readServedModel(in));
}

/**
 * Seeded loader mutation: bit flips (half of them in the header,
 * directory and META, where the structure lives), truncations with
 * the declared size patched to match, and directory offset/size
 * edits - every mutant checksum-restamped so it reaches the structural
 * validators. Each must throw SerializeError, or load and serve one
 * request without crashing.
 */
TEST(ModelSerialize, SeededMutationsThrowTypedOrServe)
{
    TempDir dir;
    CompileOptions opts;
    opts.maxLayers = 2;
    const CompiledModel model = compileModel(tinySpec(), opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string good = readFile(path);
    const std::uint64_t sections = fieldU64(good, 24);
    const std::size_t meta_end = static_cast<std::size_t>(
        fieldU64(good, 32) + fieldU64(good, 40));

    Rng rng(0x5eed);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    std::size_t rejected = 0, served = 0;
    const auto check = [&](std::string bytes) {
        restampChecksum(bytes);
        std::istringstream in(bytes);
        std::shared_ptr<const serve::ServedModel> m;
        try {
            m = serve::readServedModel(in);
        } catch (const SerializeError &) {
            ++rejected;
            return;
        }
        runOnce(*m);
        ++served;
    };
    for (int i = 0; i < 1600; ++i) {
        std::string bad = good;
        const std::size_t at =
            24 + pick((i % 2 == 0 ? meta_end : good.size()) - 24);
        bad[at] = static_cast<char>(bad[at] ^ (1 << pick(8)));
        check(bad);
    }
    for (int i = 0; i < 160; ++i) {
        std::string bad = good.substr(0, 32 + pick(good.size() - 32));
        setU64(bad, 8, bad.size());
        check(bad);
    }
    for (int i = 0; i < 480; ++i) {
        std::string bad = good;
        const std::size_t field = 32 + 16 * pick(sections) + 8 * pick(2);
        const std::uint64_t edits[] = {
            fieldU64(good, field) + 64, fieldU64(good, field) - 64,
            fieldU64(good, field) + 1, 0, good.size(),
            ~std::uint64_t{0} - 63};
        setU64(bad, field, edits[pick(6)]);
        check(bad);
    }
    EXPECT_EQ(rejected + served, 2240u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(served, 0u);
}

} // namespace
} // namespace panacea
