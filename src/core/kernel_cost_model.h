/**
 * @file
 * Per-host measured-cost model for the stream-vs-gather choice inside
 * the bit-slice GEMM engines.
 *
 * The engines can execute a pair pass two ways: GATHER an nk-long skip
 * list of dense reduction steps, or STREAM a masked-dense copy of all
 * kk steps (quadCount(kk) 8-bit step quads, priced as pairCount(kk)
 * step pairs; see core/operand_pack.h). Both sum exactly the same
 * products, so the choice is pure throughput - and the right threshold
 * depends on the host's actual ratio of stream to gather cost, which
 * the historical static rule (stream once 2*nk >= kk) merely guesses
 * at 2:1.
 *
 * This module microbenchmarks that ratio ONCE per host: per kernel
 * family (fixed v = 4 vs runtime-v) x ISA tier it times the gather
 * kernel per list step and the stream kernel per step pair over seeded
 * synthetic operands, quantizes both to integer picoseconds, and
 * persists the calibration as a small versioned JSON next to the
 * compiled-model cache (PANACEA_CACHE_DIR/kernel_costs.json). Later
 * processes load the file instead of re-measuring; a file with the
 * wrong version, checksum, or ISA coverage is ignored (never an
 * error), and an unusable entry falls back to the static rule - a bad
 * calibration can cost throughput, never correctness.
 *
 * Policy selection (PANACEA_STREAM_POLICY, or setStreamPolicy()):
 *   - "measured" (default): predicted-cost comparison per pass,
 *     stream_ps_per_pair * pairCount(kk) <= gather_ps_per_step * nk.
 *   - "static": the historical 2*nk >= kk rule (kill switch).
 *   - "stream" / "gather": force one mechanism wherever runnable
 *     (tests; also the two ends of the bench density sweep).
 * Every policy's profitable() is monotone nondecreasing in nk, which
 * the masked-HO-operand precondition in packStreamWeightOperands()
 * relies on (a pass list is never longer than the band's full dense
 * list, so "not profitable at wd_size" proves the copy dead).
 */

#ifndef PANACEA_CORE_KERNEL_COST_MODEL_H
#define PANACEA_CORE_KERNEL_COST_MODEL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/cpu_features.h"

namespace panacea {

/** How the engines decide between a masked-dense stream and a
 *  skip-list gather for each pair pass. */
enum class StreamPolicy
{
    Static = 0,   ///< historical fixed rule: stream once 2*nk >= kk
    Measured = 1, ///< per-host calibrated cost comparison (default)
    Stream = 2,   ///< force streaming wherever stream kernels exist
    Gather = 3,   ///< force gathering (paired operands never built)
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
    Pass4 = 0,   ///< fixed v = 4 kernels (pass4 / stream4)
    Generic = 1, ///< runtime-v kernels (passGeneric / streamGeneric)
};

inline constexpr std::size_t kKernelFamilyCount = 2;

/** Calibrated costs of one (ISA tier, kernel family) cell. */
struct KernelCostEntry
{
    /// False when this cell was never calibrated (e.g. the tier is not
    /// runnable here, or the loaded file predates it): Measured falls
    /// back to the static rule for it.
    bool measured = false;
    std::uint64_t gather_ps_per_step = 0; ///< gather cost per list step
    /// stream cost per step pair (two reduction steps; the kernels run
    /// whole quads, and a quad costs two pairs)
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
 * Current calibration-file format version. 2: streams run on the 8-bit
 * quad layout, so files priced on the int16 paired streams (1) are
 * re-measured, not loaded.
 */
inline constexpr std::uint32_t kKernelCostVersion = 2;

/**
 * The process-wide calibration, resolved lazily on first use: load
 * PANACEA_CACHE_DIR/kernel_costs.json when it is valid for this build
 * + host, else measure every runnable tier x family (a few ms) and
 * persist best-effort. Thread-safe; never throws past measurement.
 */
const KernelCostTable &kernelCostTable();

/**
 * The stream-vs-gather choice for one GEMM call, resolved ONCE per
 * call (policy + cost-table lookups hoisted out of the per-pass loop)
 * and then consulted per pass via profitable().
 */
struct StreamDecision
{
    StreamPolicy policy = StreamPolicy::Static;
    bool measured = false; ///< cost fields below are usable
    std::uint64_t gather_ps_per_step = 0;
    std::uint64_t stream_ps_per_pair = 0;

    /**
     * Stream (true) or gather (false) a pass whose dense-step list has
     * nk of the band's kk reduction steps. Monotone nondecreasing in
     * nk under EVERY policy (see file header). Availability of stream
     * kernels is the caller's check (streamKernelsRunnable).
     */
    bool
    profitable(std::size_t nk, std::size_t kk) const
    {
        if (policy == StreamPolicy::Stream)
            return true;
        if (policy == StreamPolicy::Gather)
            return false;
        if (policy == StreamPolicy::Measured && measured) {
            const std::uint64_t pairs = (kk + 1) / 2; // pairCount(kk)
            return stream_ps_per_pair * pairs <=
                   gather_ps_per_step * static_cast<std::uint64_t>(nk);
        }
        return 2 * nk >= kk; // static rule (and Measured's fallback)
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
