/**
 * @file
 * Per-host measured-cost model for the stream-vs-list choice inside
 * the bit-slice GEMM engines.
 *
 * Every pair pass runs one quad kernel (core/pair_pass.h) two ways: as
 * a LISTED pass over the nq quads of four reduction steps that hold a
 * dense step (128-bit loads per listed quad), or as the dense STREAM
 * over all kq = quadCount(kk) quads (one wide contiguous load per
 * operand). Both sum exactly the same products, so the choice is pure
 * throughput - and the right threshold depends on the host's actual
 * ratio of streamed to listed quad cost, which the static rule (stream
 * once 2*nq >= kq) merely guesses at 2:1.
 *
 * This module microbenchmarks that ratio ONCE per host: per kernel
 * family (fixed v = 4 vs runtime-v) x ISA tier it times the same
 * kernel both ways on one set of seeded synthetic operands, quantizes
 * both to integer picoseconds, and persists the calibration as a
 * small versioned JSON next to the compiled-model cache
 * (PANACEA_CACHE_DIR/kernel_costs.json). Units (field names kept from
 * the skip-list engine): gather_ps_per_step is a listed quad's cost
 * per step (a quarter of it), stream_ps_per_pair a streamed quad's
 * cost per step pair (half of it); 50 * stream / gather is the listed
 * quad share, in percent, above which a pass streams. Later processes
 * load the file instead of re-measuring; a file with the wrong
 * version, checksum, or ISA coverage is ignored (never an error), and
 * an unusable entry falls back to the static rule - a bad calibration
 * can cost throughput, never correctness.
 *
 * Policy selection (PANACEA_STREAM_POLICY, or setStreamPolicy()):
 *   - "measured" (default): predicted-cost comparison per pass,
 *     2 * stream_ps_per_pair * kq <= 4 * gather_ps_per_step * nq.
 *   - "static": the fixed 2*nq >= kq rule (kill switch).
 *   - "stream" / "gather": force the dense stream / the listed pass
 *     wherever a pass has a list (tests; also the two ends of the
 *     bench density sweep).
 * Every policy's profitable() is monotone nondecreasing in nq.
 */

#ifndef PANACEA_CORE_KERNEL_COST_MODEL_H
#define PANACEA_CORE_KERNEL_COST_MODEL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/cpu_features.h"

namespace panacea {

/** How the engines decide between the dense stream over every quad
 *  and a listed pass over the quads holding a dense step. */
enum class StreamPolicy
{
    Static = 0,   ///< fixed rule: stream once 2*nq >= kq
    Measured = 1, ///< per-host calibrated cost comparison (default)
    Stream = 2,   ///< force the dense stream for every pass
    Gather = 3,   ///< force the listed pass wherever a pass has a list
};

/** @return printable name ("static", "measured", "stream", "gather"). */
const char *toString(StreamPolicy policy);

/**
 * Parse a policy name (case-insensitive). @return true and set *out on
 * success; false (out untouched) for unknown names.
 */
bool parseStreamPolicy(std::string_view name, StreamPolicy *out);

/**
 * The policy GEMM calls resolve right now: the setStreamPolicy()
 * override if set, else the PANACEA_STREAM_POLICY request (read once
 * per process), else Measured.
 */
StreamPolicy activeStreamPolicy();

/**
 * Override the active policy. Intended for tests, benchmarks and
 * RuntimeOptions plumbing; not thread-safe against concurrent GEMMs.
 */
void setStreamPolicy(StreamPolicy policy);

/** Drop the override, returning to PANACEA_STREAM_POLICY / default. */
void resetStreamPolicy();

namespace detail {

/** The two pair-pass shapes with separate cost behavior. */
enum class KernelFamily
{
    Pass4 = 0,   ///< fixed v = 4 kernels (stream4)
    Generic = 1, ///< runtime-v kernels (streamGeneric)
};

inline constexpr std::size_t kKernelFamilyCount = 2;

/** Calibrated costs of one (ISA tier, kernel family) cell. */
struct KernelCostEntry
{
    /// False when this cell was never calibrated (e.g. the tier is not
    /// runnable here, or the loaded file predates it): Measured falls
    /// back to the static rule for it.
    bool measured = false;
    /// listed-pass cost per step of a listed quad (a quarter quad)
    std::uint64_t gather_ps_per_step = 0;
    /// dense-stream cost per step pair (half a streamed quad)
    std::uint64_t stream_ps_per_pair = 0;
};

/**
 * The per-host calibration: one entry per ISA tier x kernel family.
 * Costs are integer picoseconds so the JSON round-trips exactly and
 * the checksum is reproducible (no float formatting in the loop).
 */
struct KernelCostTable
{
    std::uint32_t version = 0;    ///< file-format version (kVersion)
    IsaLevel isa_cap = IsaLevel::Scalar; ///< supportedIsaCap() when calibrated
    bool loaded_from_disk = false; ///< true when read from the cache file
    int measurements = 0;          ///< kernels timed this process (0 on load)
    KernelCostEntry entries[kIsaLevelCount][kKernelFamilyCount];
};

/**
 * Current calibration-file format version. 3: both sides of the choice
 * run on the 8-bit quad layout (listed quads vs the dense stream), so
 * files that priced int16 skip-list gathers (2) or int16 paired
 * streams (1) are re-measured, not loaded.
 */
inline constexpr std::uint32_t kKernelCostVersion = 3;

/**
 * The process-wide calibration, resolved lazily on first use: load
 * PANACEA_CACHE_DIR/kernel_costs.json when it is valid for this build
 * + host, else measure every runnable tier x family (a few ms) and
 * persist best-effort. Thread-safe; never throws past measurement.
 */
const KernelCostTable &kernelCostTable();

/**
 * The stream-vs-list choice for one GEMM call, resolved ONCE per call
 * (policy + cost-table lookups hoisted out of the per-pass loop) and
 * then consulted per pass via profitable().
 */
struct StreamDecision
{
    StreamPolicy policy = StreamPolicy::Static;
    bool measured = false; ///< cost fields below are usable
    std::uint64_t gather_ps_per_step = 0;
    std::uint64_t stream_ps_per_pair = 0;

    /**
     * Stream all kq quads (true) or list (false) a pass whose list
     * holds nq of them. Monotone nondecreasing in nq under EVERY policy
     * (see file header).
     */
    bool
    profitable(std::size_t nq, std::size_t kq) const
    {
        if (policy == StreamPolicy::Stream)
            return true;
        if (policy == StreamPolicy::Gather)
            return false;
        if (policy == StreamPolicy::Measured && measured)
            return 2 * stream_ps_per_pair * kq <=
                   4 * gather_ps_per_step * static_cast<std::uint64_t>(nq);
        return 2 * nq >= kq; // static rule (and Measured's fallback)
    }
};

/**
 * Resolve the active policy + this tier/family's calibrated costs into
 * one StreamDecision. Only the Measured policy touches the cost table
 * (so forced/static policies never trigger calibration).
 */
StreamDecision streamDecision(IsaLevel level, KernelFamily family);

/** Serialize a calibration to its JSON file format (with checksum). */
std::string serializeKernelCosts(const KernelCostTable &table);

/**
 * Parse + validate a calibration file image: structure, version,
 * checksum, and isa_cap coverage for this host. @return true and fill
 * *out (loaded_from_disk = true) on success; false otherwise.
 */
bool parseKernelCosts(std::string_view text, KernelCostTable *out);

/**
 * Drop the cached process-wide table and resolve it again (reloading
 * the persisted file, or re-measuring when it is missing/invalid).
 * @return the fresh table's loaded_from_disk. Test/tool hook.
 */
bool reloadKernelCosts();

/**
 * Override the calibration cache directory (tests point this at a
 * temp dir instead of mutating PANACEA_CACHE_DIR). An empty string
 * disables persistence; call with reset = true to return to the env.
 * Takes effect at the next (re)load.
 */
void setKernelCostCacheDir(std::string dir, bool reset = false);

/** Resolved calibration file path ("" when no cache dir is set). */
std::string kernelCostCachePath();

} // namespace detail
} // namespace panacea

#endif // PANACEA_CORE_KERNEL_COST_MODEL_H
