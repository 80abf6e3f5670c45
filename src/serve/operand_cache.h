/**
 * @file
 * Keyed cache of prepared models: the serving layer's guarantee that
 * weight operands (SBR slices + HO masks) are built once
 * per (model, options) and shared - across requests, engines and
 * repeated load() calls - instead of being re-prepared per call the
 * way the one-shot entry points do.
 *
 * Cache keying: serveModelKey() fingerprints everything that changes
 * the prepared bytes - model name, v, RLE index width, skip mode,
 * ZPM/DBS settings, weight-bit override, tensor seed, calibration
 * token count and the served-layer cap. Two loads agreeing on the key
 * therefore share one immutable ServedModel (shared_ptr); anything
 * else builds a new entry. Entries live until clear().
 *
 * Disk tier (setDiskDir() / PANACEA_CACHE_DIR): when a directory is
 * configured, a memory miss first tries to LOAD the compiled model
 * from "<dir>/<fnv(key)>.pncm" (format: serve/model_serialize.h)
 * before building, and every fresh build is written back. A loaded
 * model does zero calibration/slicing/RLE/HO work and is
 * behaviourally byte-identical to a fresh build, so a cold process
 * skips the multi-second preparation entirely - CacheStats::diskHits
 * vs misses is the observable proof. Unreadable or stale files (wrong
 * version, checksum, fingerprint) are PRUNED with a warning and the
 * model is rebuilt; the disk tier can only add speed, never change
 * results.
 *
 * Eviction (setDiskCapBytes() / PANACEA_CACHE_MAX_MB /
 * RuntimeOptions::cacheMaxBytes): with a byte cap configured, every
 * write-back is followed by an LRU prune - least-recently-USED .pncm
 * files go first (a disk hit refreshes its file's timestamp), the
 * just-written entry always survives - so the directory stops growing
 * without bound (the old behaviour, cap 0, remains the default).
 * Stale format versions are removed by the `panacea_cache_sweep` tool
 * (sweepCompiledModelDir() in serve/model_serialize.h).
 */

#ifndef PANACEA_SERVE_OPERAND_CACHE_H
#define PANACEA_SERVE_OPERAND_CACHE_H

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/served_model.h"

namespace panacea {
namespace serve {

/** Thread-safe keyed cache of immutable ServedModels. */
class PreparedModelCache
{
  public:
    /** Cache effectiveness counters (monotone; reset by clear()). */
    struct CacheStats
    {
        std::uint64_t hits = 0;   ///< served from memory
        /**
         * Entries actually BUILT (full calibration + preparation).
         * With a disk tier, a cold start that finds its file keeps
         * misses at 0 - the cold-start acceptance check.
         */
        std::uint64_t misses = 0;
        /** Entries deserialized from the disk tier instead of built. */
        std::uint64_t diskHits = 0;
        double buildMsTotal = 0.0; ///< wall time spent building entries
        double loadMsTotal = 0.0;  ///< wall time spent loading entries
        /**
         * Wall time hits avoided re-spending: the sum of buildMs() of
         * every entry served from memory or disk - the "prep
         * amortization win" the LLM decode example reports. Disk hits
         * count the ORIGINAL build cost recorded in the file.
         */
        double buildMsSaved = 0.0;
    };

    /**
     * Return the cached model for (spec, opts), building it on first
     * use. Builds (and disk loads) run OUTSIDE the cache lock:
     * concurrent loaders of the same key wait on that entry's future
     * instead of duplicating a multi-second preparation, while loads
     * of other keys proceed unblocked.
     */
    std::shared_ptr<const ServedModel>
    acquire(const ModelSpec &spec, const ServeModelOptions &opts = {});

    /**
     * Enable (non-empty) or disable (empty) the disk tier. The
     * directory is created on first write. Affects subsequent
     * acquire() calls only; resident entries stay valid.
     */
    void setDiskDir(std::string dir);

    /** @return the disk-tier directory ("" = disabled). */
    std::string diskDir() const;

    /**
     * Cap the disk tier at `max_bytes` (0 = unbounded). Enforced by
     * LRU pruning after each write-back; see the file header.
     */
    void setDiskCapBytes(std::uint64_t max_bytes);

    /** @return the disk-tier size cap in bytes (0 = unbounded). */
    std::uint64_t diskCapBytes() const;

    /**
     * Whether disk hits may map the file read-only and serve the
     * weight payloads in place (default: on). Off forces the copying
     * decode. PANACEA_MMAP=0 in the environment disables mapping
     * regardless of this flag (the operational escape hatch lives in
     * loadServedModel()).
     */
    void setMmapModels(bool enable);

    /** @return whether disk hits may use the mmap load path. */
    bool mmapModels() const;

    /** @return a consistent snapshot of the counters. */
    CacheStats stats() const;

    /** @return number of resident entries. */
    std::size_t size() const;

    /** Drop every entry and reset the counters (disk files remain). */
    void clear();

    /**
     * @return the process-wide cache. Its disk tier starts from the
     * PANACEA_CACHE_DIR environment variable when set.
     */
    static PreparedModelCache &global();

  private:
    using ModelFuture =
        std::shared_future<std::shared_ptr<const ServedModel>>;

    mutable std::mutex mutex_;
    std::map<std::string, ModelFuture> entries_;
    std::string diskDir_;
    std::uint64_t diskCapBytes_ = 0;
    bool mmapModels_ = true;
    CacheStats stats_;
};

} // namespace serve
} // namespace panacea

#endif // PANACEA_SERVE_OPERAND_CACHE_H
