/**
 * @file
 * Disk-tier eviction tests: the compiled-model cache directory must
 * stay under its byte cap by least-recently-used pruning (disk hits
 * refresh recency, the newest entry always survives), the version
 * sweep must remove exactly the entries a reader would reject (stale
 * format versions - the retired v1 and v2 among them - and corrupt
 * envelopes) and nothing else, both through the library and through
 * the panacea_cache_sweep CLI, and a corrupt or retired-format file
 * must be PRUNED on a failed load and rebuilt - never served, never
 * left to count against the cap forever.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "panacea/runtime.h"
#include "serve/model_serialize.h"
#include "serve/operand_cache.h"

namespace panacea {
namespace {

namespace fs = std::filesystem;

/** One layer keeps builds fast; the name salts the cache key. */
ModelSpec
tinySpec(const std::string &name)
{
    ModelSpec spec;
    spec.name = name;
    spec.seqLen = 16;
    LayerSpec l0;
    l0.name = "L0.FC1";
    l0.m = 16;
    l0.kDim = 16;
    l0.dist = ActDistKind::LayerNormGauss;
    spec.layers = {l0};
    return spec;
}

/** Unique scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;
    TempDir()
    {
        path = fs::temp_directory_path() /
               ("panacea_evict_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
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

/** The disk-tier file path of (spec, opts) inside `dir`. */
std::string
tierPath(const TempDir &dir, const ModelSpec &spec,
         const serve::ServeModelOptions &opts = {})
{
    return dir.file(
        serve::compiledModelFileName(serve::serveModelKey(spec, opts)));
}

void
setMtime(const std::string &path, int seconds_ago)
{
    fs::last_write_time(path,
                        fs::file_time_type::clock::now() -
                            std::chrono::seconds(seconds_ago));
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** A current file's bytes with the envelope version set to `v`. */
std::string
withVersion(std::string bytes, std::uint32_t v)
{
    std::memcpy(bytes.data() + 4, &v, sizeof(v));
    return bytes;
}

std::size_t
pncmCount(const TempDir &dir)
{
    std::size_t n = 0;
    for (const auto &de : fs::directory_iterator(dir.path))
        if (de.path().extension() == ".pncm")
            ++n;
    return n;
}

TEST(CacheEviction, PruneRemovesOldestFirstAndSparesNewest)
{
    TempDir dir;
    writeBytes(dir.file("a.pncm"), std::string(1024, 'a'));
    writeBytes(dir.file("b.pncm"), std::string(1024, 'b'));
    writeBytes(dir.file("c.pncm"), std::string(1024, 'c'));
    setMtime(dir.file("a.pncm"), 300);
    setMtime(dir.file("b.pncm"), 200);
    setMtime(dir.file("c.pncm"), 100);

    // Cap fits two entries: the oldest (a) goes.
    serve::CacheDirReport r =
        serve::pruneCompiledModelDir(dir.path.string(), 2048);
    EXPECT_EQ(r.scanned, 3u);
    EXPECT_EQ(r.evicted, 1u);
    EXPECT_EQ(r.bytesFreed, 1024u);
    EXPECT_EQ(r.bytesKept, 2048u);
    EXPECT_FALSE(fs::exists(dir.file("a.pncm")));
    EXPECT_TRUE(fs::exists(dir.file("b.pncm")));
    EXPECT_TRUE(fs::exists(dir.file("c.pncm")));

    // A cap smaller than ANY entry still keeps the newest one.
    r = serve::pruneCompiledModelDir(dir.path.string(), 100);
    EXPECT_EQ(r.evicted, 1u);
    EXPECT_FALSE(fs::exists(dir.file("b.pncm")));
    EXPECT_TRUE(fs::exists(dir.file("c.pncm")));

    // Cap 0 = unbounded: a no-op.
    r = serve::pruneCompiledModelDir(dir.path.string(), 0);
    EXPECT_EQ(r.evicted, 0u);
    EXPECT_TRUE(fs::exists(dir.file("c.pncm")));
}

TEST(CacheEviction, WriteBackEnforcesTheCapThroughTheCache)
{
    TempDir dir;
    serve::PreparedModelCache cache;
    cache.setDiskDir(dir.path.string());

    // First build establishes the per-entry footprint.
    cache.acquire(tinySpec("evict-a"));
    const std::string path_a = tierPath(dir, tinySpec("evict-a"));
    ASSERT_TRUE(fs::exists(path_a));
    const std::uint64_t entry_bytes = fs::file_size(path_a);
    setMtime(path_a, 300);

    // Cap fits two entries; a third write-back must evict the LRU.
    cache.setDiskCapBytes(entry_bytes * 2 + entry_bytes / 2);
    EXPECT_EQ(cache.diskCapBytes(), entry_bytes * 2 + entry_bytes / 2);
    cache.acquire(tinySpec("evict-b"));
    setMtime(tierPath(dir, tinySpec("evict-b")), 200);
    cache.acquire(tinySpec("evict-c"));

    EXPECT_EQ(pncmCount(dir), 2u);
    EXPECT_FALSE(fs::exists(path_a));
    EXPECT_TRUE(fs::exists(tierPath(dir, tinySpec("evict-b"))));
    EXPECT_TRUE(fs::exists(tierPath(dir, tinySpec("evict-c"))));
}

TEST(CacheEviction, DiskHitRefreshesLruRecency)
{
    TempDir dir;
    std::uint64_t entry_bytes = 0;
    {
        serve::PreparedModelCache warm;
        warm.setDiskDir(dir.path.string());
        warm.acquire(tinySpec("lru-a"));
        warm.acquire(tinySpec("lru-b"));
        entry_bytes = fs::file_size(tierPath(dir, tinySpec("lru-a")));
    }
    // a is older than b on disk...
    setMtime(tierPath(dir, tinySpec("lru-a")), 300);
    setMtime(tierPath(dir, tinySpec("lru-b")), 200);

    // ...but a fresh process HITS a, refreshing its recency.
    serve::PreparedModelCache cold;
    cold.setDiskDir(dir.path.string());
    cold.setDiskCapBytes(entry_bytes * 2 + entry_bytes / 2);
    cold.acquire(tinySpec("lru-a"));
    EXPECT_EQ(cold.stats().diskHits, 1u);

    // The next write-back evicts b (now the least recently USED).
    cold.acquire(tinySpec("lru-c"));
    EXPECT_TRUE(fs::exists(tierPath(dir, tinySpec("lru-a"))));
    EXPECT_FALSE(fs::exists(tierPath(dir, tinySpec("lru-b"))));
    EXPECT_TRUE(fs::exists(tierPath(dir, tinySpec("lru-c"))));
}

TEST(CacheEviction, SweepRemovesStaleVersionsAndCorruptKeepsCurrent)
{
    TempDir dir;
    {
        serve::PreparedModelCache cache;
        cache.setDiskDir(dir.path.string());
        cache.acquire(tinySpec("sweep-keep"));
    }
    const std::string keep = tierPath(dir, tinySpec("sweep-keep"));
    ASSERT_TRUE(fs::exists(keep));
    EXPECT_EQ(serve::peekCompiledModelVersion(keep),
              serve::kCompiledModelFormatVersion);

    // A stale-version twin: same valid body, version field patched
    // (the version lives OUTSIDE the checksummed payload).
    writeBytes(dir.file("stale.pncm"),
               withVersion(readBytes(keep),
                           serve::kCompiledModelFormatVersion + 57));
    EXPECT_NE(serve::peekCompiledModelVersion(dir.file("stale.pncm")),
              serve::kCompiledModelFormatVersion);
    // The retired v2 format (which also stored RLE streams) is stale.
    writeBytes(dir.file("v2.pncm"), withVersion(readBytes(keep), 2));

    // A corrupt envelope and an unrelated file.
    writeBytes(dir.file("corrupt.pncm"), "not a compiled model");
    writeBytes(dir.file("notes.txt"), "left alone");

    const serve::CacheDirReport r =
        serve::sweepCompiledModelDir(dir.path.string());
    EXPECT_EQ(r.scanned, 4u);
    EXPECT_EQ(r.staleVersion, 2u);
    EXPECT_EQ(r.corrupt, 1u);
    EXPECT_EQ(r.evicted, 0u);
    EXPECT_TRUE(fs::exists(keep));
    EXPECT_FALSE(fs::exists(dir.file("stale.pncm")));
    EXPECT_FALSE(fs::exists(dir.file("v2.pncm")));
    EXPECT_FALSE(fs::exists(dir.file("corrupt.pncm")));
    EXPECT_TRUE(fs::exists(dir.file("notes.txt")));
}

TEST(CacheEviction, CorruptFileIsPrunedAndRebuiltNotLoaded)
{
    TempDir dir;
    const ModelSpec spec = tinySpec("corrupt-rebuild");
    const std::string path = tierPath(dir, spec);

    // A current entry re-labelled as the retired v1 or v2 format: its
    // body is intact, but no reader loads that version any more.
    {
        serve::PreparedModelCache seed;
        seed.setDiskDir(dir.path.string());
        seed.acquire(spec);
    }
    const std::string v1 = withVersion(readBytes(path), 1);
    const std::string v2 = withVersion(readBytes(path), 2);

    for (const std::string &bytes :
         {std::string("garbage that is definitely not a model"), v1, v2}) {
        writeBytes(path, bytes);
        serve::PreparedModelCache cache;
        cache.setDiskDir(dir.path.string());
        auto model = cache.acquire(spec);
        ASSERT_NE(model, nullptr);
        // Rebuilt, not loaded; the unreadable bytes were pruned and
        // the write-back replaced them with a loadable entry.
        EXPECT_EQ(cache.stats().diskHits, 0u);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(serve::peekCompiledModelVersion(path),
                  serve::kCompiledModelFormatVersion);
    }
}

/**
 * The panacea_cache_sweep CLI end to end: on a directory holding a
 * current file, forged version-1 and version-2 envelopes and a corrupt
 * file it exits 0, keeps the current file and removes the other three. CTest
 * passes the tool's path in PANACEA_CACHE_SWEEP_BIN.
 */
TEST(CacheEviction, SweepToolKeepsCurrentAndRemovesV1AndCorrupt)
{
    const char *tool = std::getenv("PANACEA_CACHE_SWEEP_BIN");
    if (tool == nullptr)
        GTEST_SKIP() << "PANACEA_CACHE_SWEEP_BIN not set (run via ctest)";
    TempDir dir;
    {
        serve::PreparedModelCache cache;
        cache.setDiskDir(dir.path.string());
        cache.acquire(tinySpec("sweep-cli"));
    }
    const std::string keep = tierPath(dir, tinySpec("sweep-cli"));
    ASSERT_TRUE(fs::exists(keep));
    writeBytes(dir.file("v1.pncm"), withVersion(readBytes(keep), 1));
    writeBytes(dir.file("v2.pncm"), withVersion(readBytes(keep), 2));
    writeBytes(dir.file("corrupt.pncm"), "not a compiled model");

    const std::string cmd = std::string("'") + tool + "' '" +
                            dir.path.string() + "' > /dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_TRUE(fs::exists(keep));
    EXPECT_FALSE(fs::exists(dir.file("v1.pncm")));
    EXPECT_FALSE(fs::exists(dir.file("v2.pncm")));
    EXPECT_FALSE(fs::exists(dir.file("corrupt.pncm")));
    EXPECT_EQ(pncmCount(dir), 1u);
}

TEST(CacheEviction, RuntimeOptionPlumbsTheCap)
{
    TempDir dir;
    RuntimeOptions ropts;
    ropts.cacheDir = dir.path.string();
    ropts.cacheMaxBytes = 7 * 1024 * 1024;
    Runtime rt(ropts);
    EXPECT_EQ(rt.cache().diskDir(), dir.path.string());
    EXPECT_EQ(rt.cache().diskCapBytes(), 7u * 1024 * 1024);
}

} // namespace
} // namespace panacea
