#include "core/kernel_cost_model.h"

#include <atomic>
#include <cstdlib>

#include "util/logging.h"

namespace panacea {

namespace {

bool
nameEquals(std::string_view name, std::string_view want)
{
    if (name.size() != want.size())
        return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
        char c = name[i];
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
        if (c != want[i])
            return false;
    }
    return true;
}

// setStreamPolicy() override; -1 = unset. Relaxed atomics suffice:
// callers must not race overrides against GEMM launches (see header).
std::atomic<int> g_policy_override{-1};

/** PANACEA_STREAM_POLICY request, read once; defaults to Measured.
 *  An empty value counts as unset (CI matrices export it that way). */
StreamPolicy
envStreamPolicy()
{
    static const StreamPolicy policy = [] {
        const char *env = std::getenv("PANACEA_STREAM_POLICY");
        if (env != nullptr && env[0] != '\0') {
            StreamPolicy requested;
            if (parseStreamPolicy(env, &requested))
                return requested;
            warn("ignoring unrecognized PANACEA_STREAM_POLICY=", env);
        }
        return StreamPolicy::Measured;
    }();
    return policy;
}

} // namespace

const char *
toString(StreamPolicy policy)
{
    switch (policy) {
      case StreamPolicy::Measured: return "measured";
      case StreamPolicy::Stream:   return "stream";
      case StreamPolicy::Gather:   return "gather";
    }
    return "?";
}

bool
parseStreamPolicy(std::string_view name, StreamPolicy *out)
{
    if (nameEquals(name, "measured"))
        *out = StreamPolicy::Measured;
    else if (nameEquals(name, "stream"))
        *out = StreamPolicy::Stream;
    else if (nameEquals(name, "gather"))
        *out = StreamPolicy::Gather;
    else
        return false;
    return true;
}

StreamPolicy
activeStreamPolicy()
{
    const int ov = g_policy_override.load(std::memory_order_relaxed);
    if (ov >= 0)
        return static_cast<StreamPolicy>(ov);
    return envStreamPolicy();
}

void
setStreamPolicy(StreamPolicy policy)
{
    g_policy_override.store(static_cast<int>(policy),
                            std::memory_order_relaxed);
}

void
resetStreamPolicy()
{
    g_policy_override.store(-1, std::memory_order_relaxed);
}

namespace detail {

const KernelCostTable &
kernelCostTable()
{
    static const KernelCostTable table;
    return table;
}

bool
reloadKernelCosts()
{
    return false;
}

void
setKernelCostCacheDir(std::string)
{
}

} // namespace detail
} // namespace panacea
