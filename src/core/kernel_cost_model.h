/**
 * @file
 * The stream-vs-list rule for the pair passes of the bit-slice GEMM
 * engines.
 *
 * Every pair pass runs one quad kernel (core/pair_pass.h) one of two
 * ways: as a LISTED pass over the nq quads of four reduction steps that
 * hold a dense step (128-bit loads per listed quad), or as the dense
 * STREAM over all kq = quadCount(kk) quads (one wide contiguous load
 * per operand). Both sum exactly the same products, so the choice is
 * pure throughput. Like Panacea's own skip/compress decisions it is
 * fixed at design time from slice sparsity alone: a pass streams once
 * 2 * nq >= kq, i.e. once at least half of its quads are listed.
 *
 * Policy selection (PANACEA_STREAM_POLICY, or setStreamPolicy()):
 *   - "measured" (default): the fixed 2 * nq >= kq rule. The name is
 *     kept for existing callers; nothing is measured.
 *   - "stream" / "gather": force the dense stream / the listed pass
 *     wherever a pass has a list (tests and whole-suite forced runs).
 * Every policy's profitable() is monotone nondecreasing in nq, and
 * every policy produces bit-identical results and counters.
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
    Measured = 0, ///< the fixed rule: stream once 2*nq >= kq (default)
    Stream = 1,   ///< force the dense stream for every pass
    Gather = 2,   ///< force the listed pass wherever a pass has a list
};

/** @return printable name ("measured", "stream", "gather"). */
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

/**
 * The stream-vs-list choice for one GEMM call: the policy is resolved
 * once per call and then consulted per pass via profitable().
 */
struct StreamDecision
{
    StreamPolicy policy = StreamPolicy::Measured;

    /**
     * Stream all kq quads (true) or list (false) a pass whose list
     * holds nq of them. Monotone nondecreasing in nq under every
     * policy.
     */
    bool
    profitable(std::size_t nq, std::size_t kq) const
    {
        if (policy == StreamPolicy::Stream)
            return true;
        if (policy == StreamPolicy::Gather)
            return false;
        return 2 * nq >= kq;
    }
};

// ---------------------------------------------------------------------
// Compatibility block: the shapes of the former per-host calibration,
// kept only so existing benchmark drivers still compile. Nothing in the
// library reads them; delete the block with its last caller.
// ---------------------------------------------------------------------

/** The two pair-pass kernel families (fixed v = 4, runtime v). */
enum class KernelFamily
{
    Pass4 = 0,
    Generic = 1,
};

inline constexpr std::size_t kKernelFamilyCount = 2;

/** One (ISA tier, kernel family) cell; never measured, so callers that
 *  derive a threshold from it fall back to the 50% rule. */
struct KernelCostEntry
{
    bool measured = false;
    std::uint64_t gather_ps_per_step = 0;
    std::uint64_t stream_ps_per_pair = 0;
};

struct KernelCostTable
{
    KernelCostEntry entries[kIsaLevelCount][kKernelFamilyCount];
};

/** @return one static, default-initialised (all unmeasured) table. */
const KernelCostTable &kernelCostTable();

/** Does nothing. @return false (nothing is ever loaded). */
bool reloadKernelCosts();

/** Does nothing. */
void setKernelCostCacheDir(std::string dir);

// --------------------------- end compatibility block -----------------

} // namespace detail
} // namespace panacea

#endif // PANACEA_CORE_KERNEL_COST_MODEL_H
