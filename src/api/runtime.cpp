#include "panacea/runtime.h"

#include "core/kernel_cost_model.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace panacea {

Runtime::Runtime(const RuntimeOptions &opts) : opts_(opts)
{
    if (!opts_.isa.empty()) {
        IsaLevel level;
        if (parseIsaLevel(opts_.isa, &level))
            setIsaLevel(level); // clamped to hardware + build support
        else
            warn("RuntimeOptions::isa '", opts_.isa,
                 "' not recognized (scalar|sse2|avx2|avx512|vnni) - "
                 "keeping current selection");
    }
    if (!opts_.streamPolicy.empty()) {
        StreamPolicy policy;
        if (parseStreamPolicy(opts_.streamPolicy, &policy))
            setStreamPolicy(policy);
        else
            warn("RuntimeOptions::streamPolicy '", opts_.streamPolicy,
                 "' not recognized (measured|stream|gather) - "
                 "keeping current selection");
    }
    if (opts_.threads > 0)
        setParallelThreads(opts_.threads);

    if (opts_.useGlobalCache) {
        cache_ = &serve::PreparedModelCache::global();
    } else {
        owned_ = std::make_unique<serve::PreparedModelCache>();
        cache_ = owned_.get();
    }
    if (!opts_.cacheDir.empty())
        cache_->setDiskDir(opts_.cacheDir);
    if (opts_.cacheMaxBytes > 0)
        cache_->setDiskCapBytes(opts_.cacheMaxBytes);
    cache_->setMmapModels(opts_.mmapModels);
}

CompiledModel
Runtime::compile(const ModelSpec &spec, const CompileOptions &opts)
{
    return CompiledModel(cache_->acquire(spec, opts));
}

Session
Runtime::createSession(const SessionOptions &opts)
{
    return Session(opts, cache_);
}

Fleet
Runtime::createFleet(FleetOptions opts)
{
    // Precedence for the replica count: explicit FleetOptions, then
    // RuntimeOptions::replicas; 0 lets the router read
    // PANACEA_REPLICAS and fall back to 2.
    if (opts.replicas <= 0)
        opts.replicas = opts_.replicas;
    return Fleet(opts);
}

} // namespace panacea
