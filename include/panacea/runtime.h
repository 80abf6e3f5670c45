/**
 * @file
 * panacea::Runtime - the root object of the public API. One Runtime
 * gathers everything that used to require poking four internal layers
 * (`aqsGemm`, `AqsLinearLayer`, `ServedModel`, `InferenceEngine`)
 * into a single place:
 *
 *   - execution environment: micro-kernel ISA tier and thread-pool
 *     width, applied once at construction;
 *   - the prepared-model cache, optionally backed by an on-disk tier
 *     of versioned compiled-model files so a cold process loads
 *     models with ZERO calibration/slicing/RLE/HO work;
 *   - compile(): ModelSpec -> CompiledModel through that cache;
 *   - createSession(): the submit/await serving surface.
 *
 * Typical use:
 *
 *   panacea::RuntimeOptions ropts;
 *   ropts.cacheDir = "/var/cache/panacea";     // optional disk tier
 *   panacea::Runtime rt(ropts);
 *   panacea::CompiledModel model = rt.compile(panacea::deitBase());
 *   panacea::Session session = rt.createSession();
 *   auto result = session.infer(model, input); // or submit() futures
 *
 * Sessions and CompiledModels must not outlive their Runtime.
 */

#ifndef PANACEA_PUBLIC_RUNTIME_H
#define PANACEA_PUBLIC_RUNTIME_H

#include <memory>
#include <string>

#include "panacea/compiled_model.h"
#include "panacea/fleet.h"
#include "panacea/session.h"
#include "serve/operand_cache.h"

namespace panacea {

/** Cache effectiveness counters (hits/misses/diskHits/ms saved). */
using CacheStats = serve::PreparedModelCache::CacheStats;

/** Runtime configuration (fixed at construction). */
struct RuntimeOptions
{
    /**
     * Micro-kernel ISA tier: "scalar" | "sse2" | "avx2" | "avx512" |
     * "vnni"; "" keeps the current selection (PANACEA_ISA env var or
     * auto detection). Requests above what the machine or build
     * supports clamp down. NOTE: kernel dispatch is process-global
     * state - the last Runtime constructed wins.
     */
    std::string isa;
    /**
     * Dense-stream vs listed-quad dispatch policy for the pair-pass
     * kernels: "static" | "measured" | "stream" | "gather" (every
     * pass with a quad list runs listed); "" keeps the
     * current selection (PANACEA_STREAM_POLICY env var, default
     * "measured" - the per-host calibrated cost comparison). Also
     * process-global; every policy produces bit-identical results.
     */
    std::string streamPolicy;
    /**
     * Thread-pool width for kernels and operand preparation; 0 keeps
     * the current width (PANACEA_THREADS env var or hardware
     * concurrency). Also process-global.
     */
    int threads = 0;
    /**
     * Directory of the compiled-model disk tier; "" disables it.
     * With a directory set, compile() loads previously-saved models
     * instead of rebuilding (cold starts skip calibration entirely)
     * and writes every fresh build back.
     */
    std::string cacheDir;
    /**
     * Size cap of the disk tier in bytes; 0 = unbounded (or the
     * PANACEA_CACHE_MAX_MB environment variable when the global cache
     * is shared). When a write-back pushes the directory past the
     * cap, least-recently-USED .pncm files are pruned (disk hits
     * refresh recency) until it fits - the newest entry is never
     * pruned. Eviction only costs a later cold start a rebuild; it
     * can never change results.
     */
    std::uint64_t cacheMaxBytes = 0;
    /**
     * Share the process-wide model cache instead of owning a private
     * one: several Runtimes then deduplicate preparation across each
     * other (cacheDir, when set, is applied to the global cache).
     */
    bool useGlobalCache = false;
    /**
     * Serve disk-tier hits by mapping the compiled-model file
     * read-only and consuming its payloads in place, so a
     * cold start is bounded by page mapping - not by decoding - and
     * every process loading the same file shares one set of physical
     * weight pages. Off (or PANACEA_MMAP=0 in the environment, which
     * wins over this flag) forces the copying decode. Either path
     * yields bit-identical outputs.
     */
    bool mmapModels = true;
    /**
     * Default replica count for createFleet(): the value used when
     * FleetOptions::replicas is left at 0. 0 here defers to the
     * PANACEA_REPLICAS environment variable, falling back to 2.
     */
    int replicas = 0;
};

/** The public API root; see the file header. */
class Runtime
{
  public:
    explicit Runtime(const RuntimeOptions &opts = {});

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Compile (prepare) a model, deduplicated through the cache:
     * memory hit -> shared handle; disk hit (cacheDir set) -> decode,
     * zero preparation work; otherwise the full calibration +
     * slicing/RLE/HO pipeline runs once and (cacheDir set) the result
     * is persisted. Concurrent compiles of the same key share one
     * build. Every path returns a behaviourally identical model -
     * same outputs, same AqsStats, at every ISA level.
     */
    CompiledModel compile(const ModelSpec &spec,
                          const CompileOptions &opts = {});

    /** Create a serving session over this runtime's cache. */
    Session createSession(const SessionOptions &opts = {});

    /**
     * Create a multi-replica serving fleet (see panacea/fleet.h).
     * opts.replicas == 0 takes RuntimeOptions::replicas, then
     * PANACEA_REPLICAS, then 2. Deploy CompiledModels from compile()
     * or loadCompiledModel() - with mmapModels, every replica shares
     * one physical copy of the weights.
     */
    Fleet createFleet(FleetOptions opts = {});

    /** @return cache counters (the cold-start proof lives here). */
    CacheStats cacheStats() const { return cache_->stats(); }

    /** @return the model cache (advanced use: clear(), size()). */
    serve::PreparedModelCache &cache() { return *cache_; }

    /** @return the options the runtime was constructed with. */
    const RuntimeOptions &options() const { return opts_; }

  private:
    RuntimeOptions opts_;
    std::unique_ptr<serve::PreparedModelCache> owned_;
    serve::PreparedModelCache *cache_ = nullptr;
};

} // namespace panacea

#endif // PANACEA_PUBLIC_RUNTIME_H
