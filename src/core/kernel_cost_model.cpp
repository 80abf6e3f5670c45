#include "core/kernel_cost_model.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/operand_pack.h"
#include "core/pair_pass.h"
#include "util/fnv.h"
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
      case StreamPolicy::Static:   return "static";
      case StreamPolicy::Measured: return "measured";
      case StreamPolicy::Stream:   return "stream";
      case StreamPolicy::Gather:   return "gather";
    }
    return "?";
}

bool
parseStreamPolicy(std::string_view name, StreamPolicy *out)
{
    if (nameEquals(name, "static"))
        *out = StreamPolicy::Static;
    else if (nameEquals(name, "measured"))
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

namespace {

std::mutex g_table_mutex;
KernelCostTable g_table;
bool g_table_init = false;

std::mutex g_dir_mutex;
std::string g_dir_override;
bool g_dir_overridden = false;

std::uint64_t
checksumOf(const KernelCostTable &t)
{
    std::uint64_t h = fnv1a64Offset;
    h = fnv1a64Word(h, t.version);
    h = fnv1a64Word(h, static_cast<std::uint64_t>(
                           static_cast<int>(t.isa_cap)));
    for (std::size_t l = 0; l < kIsaLevelCount; ++l)
        for (std::size_t f = 0; f < kKernelFamilyCount; ++f) {
            const KernelCostEntry &e = t.entries[l][f];
            h = fnv1a64Word(h, e.measured ? 1 : 0);
            h = fnv1a64Word(h, e.gather_ps_per_step);
            h = fnv1a64Word(h, e.stream_ps_per_pair);
        }
    return h;
}

/**
 * Deterministic synthetic operands for one kernel family: s8/u8 quad
 * planes of a kk-step band and an every-other-quad list. Values are
 * seeded (identical on every host) and irrelevant to the integer
 * kernels' timing; only the shapes matter.
 */
struct SyntheticOperands
{
    std::size_t quads = 0;
    int v = 0;
    std::vector<std::int8_t> wq;
    std::vector<std::uint8_t> xq;
    std::vector<std::uint32_t> qs;
    std::vector<std::int32_t> pacc;
};

SyntheticOperands
makeOperands(int v)
{
    SyntheticOperands ops;
    ops.quads = quadCount(2048);
    ops.v = v;
    const std::size_t uv = static_cast<std::size_t>(v);
    std::mt19937 rng(0x9e3779b9u);
    std::uniform_int_distribution<int> dist(-3, 3);
    const auto fill = [&](auto &vec, std::size_t size, int bias) {
        vec.resize(size);
        for (auto &e : vec)
            e = static_cast<std::remove_reference_t<decltype(e)>>(
                dist(rng) + bias);
    };
    fill(ops.wq, ops.quads * 4 * uv, 0);
    fill(ops.xq, ops.quads * 4 * uv, 3); // u8 activations: [0, 6]
    for (std::size_t q = 0; q < ops.quads; q += 2)
        ops.qs.push_back(static_cast<std::uint32_t>(q));
    ops.pacc.assign(uv * uv, 0);
    return ops;
}

/**
 * Best-of-3 per-unit cost in integer picoseconds. Each sample loops
 * the kernel enough to outlast timer noise; the minimum is the least
 * interference-polluted estimate. Clamped to >= 1 so a measured entry
 * can never degenerate into "free".
 */
template <class F>
std::uint64_t
psPerUnit(F &&run, std::size_t units)
{
    run(); // warm: icache, page-in, frequency ramp
    std::uint64_t best = ~std::uint64_t{0};
    for (int rep = 0; rep < 3; ++rep) {
        constexpr int iters = 16;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            run();
        const auto ns = std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        const std::uint64_t per =
            static_cast<std::uint64_t>(ns) * 1000ull /
            (static_cast<std::uint64_t>(iters) * units);
        if (per < best)
            best = per;
    }
    return best == 0 ? 1 : best;
}

/**
 * Price one family's kernel both ways on the same operands: listed per
 * step of a listed quad, streamed per step pair (see the header's
 * units).
 */
template <class Kernel>
void
measureEntry(KernelCostEntry &e, SyntheticOperands &o, Kernel &&kernel,
             int &measurements)
{
    e.gather_ps_per_step = psPerUnit(
        [&] { kernel(o.qs.data(), o.qs.size(), false); }, 4 * o.qs.size());
    e.stream_ps_per_pair = psPerUnit(
        [&] { kernel(nullptr, o.quads, true); }, 2 * o.quads);
    e.measured = true;
    measurements += 2;
}

void
measureAll(KernelCostTable &t)
{
    SyntheticOperands ops4 = makeOperands(4);
    SyntheticOperands ops8 = makeOperands(8);
    const IsaLevel cap = supportedIsaCap();
    for (int l = 0; l <= static_cast<int>(cap); ++l) {
        const PairPassKernels &kern =
            pairPassKernels(static_cast<IsaLevel>(l));
        measureEntry(
            t.entries[l][static_cast<int>(KernelFamily::Pass4)], ops4,
            [&](const std::uint32_t *qs, std::size_t nq, bool identity) {
                kern.stream4(ops4.wq.data(), ops4.xq.data(), qs, nq,
                             identity, ops4.pacc.data());
            },
            t.measurements);
        measureEntry(
            t.entries[l][static_cast<int>(KernelFamily::Generic)], ops8,
            [&](const std::uint32_t *qs, std::size_t nq, bool identity) {
                kern.streamGeneric(ops8.wq.data(), ops8.xq.data(), qs, nq,
                                   identity, ops8.v, ops8.pacc.data());
            },
            t.measurements);
    }
}

/** Minimal strict cursor over the calibration file's own format. */
struct Cursor
{
    std::string_view text;
    std::size_t pos = 0;
    bool ok = true;

    void
    ws()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    }
    void
    lit(std::string_view want)
    {
        ws();
        if (ok && text.substr(pos, want.size()) == want)
            pos += want.size();
        else
            ok = false;
    }
    void
    u64(std::uint64_t *out)
    {
        ws();
        if (!ok || pos >= text.size() || text[pos] < '0' ||
            text[pos] > '9') {
            ok = false;
            return;
        }
        std::uint64_t v = 0;
        while (pos < text.size() && text[pos] >= '0' &&
               text[pos] <= '9') {
            if (v > (~std::uint64_t{0} - 9) / 10) {
                ok = false;
                return;
            }
            v = v * 10 + static_cast<std::uint64_t>(text[pos] - '0');
            ++pos;
        }
        *out = v;
    }
    void
    key(std::string_view name, std::uint64_t *out)
    {
        lit("\"");
        lit(name);
        lit("\"");
        lit(":");
        u64(out);
    }
};

std::string
resolvedCacheDir()
{
    std::lock_guard<std::mutex> lock(g_dir_mutex);
    if (g_dir_overridden)
        return g_dir_override;
    if (const char *dir = std::getenv("PANACEA_CACHE_DIR");
        dir != nullptr && *dir != '\0')
        return dir;
    return {};
}

KernelCostTable
resolveTable()
{
    KernelCostTable t;
    t.version = kKernelCostVersion;
    t.isa_cap = supportedIsaCap();
    const std::string path = kernelCostCachePath();
    if (!path.empty()) {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            const std::string text = buf.str();
            KernelCostTable loaded;
            if (parseKernelCosts(text, &loaded))
                return loaded;
            warn("ignoring invalid kernel-cost calibration at ", path);
        }
    }
    measureAll(t);
    if (!path.empty()) {
        // Best effort: a read-only cache dir costs re-measurement next
        // process, never correctness.
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), ec);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (out)
            out << serializeKernelCosts(t);
        if (!out)
            warn("could not persist kernel-cost calibration to ", path);
    }
    return t;
}

} // namespace

std::string
serializeKernelCosts(const KernelCostTable &table)
{
    std::ostringstream out;
    out << "{\n  \"version\": " << table.version << ",\n  \"isa_cap\": "
        << static_cast<int>(table.isa_cap) << ",\n  \"entries\": [\n";
    for (std::size_t l = 0; l < kIsaLevelCount; ++l)
        for (std::size_t f = 0; f < kKernelFamilyCount; ++f) {
            const KernelCostEntry &e = table.entries[l][f];
            out << "    {\"isa\": " << l << ", \"family\": " << f
                << ", \"measured\": " << (e.measured ? 1 : 0)
                << ", \"gather_ps_per_step\": " << e.gather_ps_per_step
                << ", \"stream_ps_per_pair\": " << e.stream_ps_per_pair
                << "}";
            if (l + 1 < kIsaLevelCount || f + 1 < kKernelFamilyCount)
                out << ",";
            out << "\n";
        }
    out << "  ],\n  \"checksum\": " << checksumOf(table) << "\n}\n";
    return out.str();
}

bool
parseKernelCosts(std::string_view text, KernelCostTable *out)
{
    KernelCostTable t;
    Cursor c{text};
    std::uint64_t version = 0, isa_cap = 0, checksum = 0;
    c.lit("{");
    c.key("version", &version);
    c.lit(",");
    c.key("isa_cap", &isa_cap);
    c.lit(",");
    c.lit("\"");
    c.lit("entries");
    c.lit("\"");
    c.lit(":");
    c.lit("[");
    for (std::size_t l = 0; c.ok && l < kIsaLevelCount; ++l)
        for (std::size_t f = 0; c.ok && f < kKernelFamilyCount; ++f) {
            std::uint64_t isa = 0, family = 0, measured = 0,
                          gather = 0, stream = 0;
            c.lit("{");
            c.key("isa", &isa);
            c.lit(",");
            c.key("family", &family);
            c.lit(",");
            c.key("measured", &measured);
            c.lit(",");
            c.key("gather_ps_per_step", &gather);
            c.lit(",");
            c.key("stream_ps_per_pair", &stream);
            c.lit("}");
            if (l + 1 < kIsaLevelCount || f + 1 < kKernelFamilyCount)
                c.lit(",");
            if (isa != l || family != f || measured > 1)
                c.ok = false;
            t.entries[l][f].measured = measured != 0;
            t.entries[l][f].gather_ps_per_step = gather;
            t.entries[l][f].stream_ps_per_pair = stream;
        }
    c.lit("]");
    c.lit(",");
    c.key("checksum", &checksum);
    c.lit("}");
    c.ws();
    if (!c.ok || c.pos != text.size())
        return false;
    if (version != kKernelCostVersion)
        return false;
    if (isa_cap >= kIsaLevelCount)
        return false;
    t.version = static_cast<std::uint32_t>(version);
    t.isa_cap = static_cast<IsaLevel>(static_cast<int>(isa_cap));
    if (checksumOf(t) != checksum)
        return false;
    // A calibration from a narrower build/host lacks the tiers this
    // process can run: re-measure rather than silently degrading them
    // to the static rule.
    if (t.isa_cap != supportedIsaCap())
        return false;
    t.loaded_from_disk = true;
    t.measurements = 0;
    *out = t;
    return true;
}

const KernelCostTable &
kernelCostTable()
{
    std::lock_guard<std::mutex> lock(g_table_mutex);
    if (!g_table_init) {
        g_table = resolveTable();
        g_table_init = true;
    }
    return g_table;
}

StreamDecision
streamDecision(IsaLevel level, KernelFamily family)
{
    StreamDecision d;
    d.policy = activeStreamPolicy();
    if (d.policy != StreamPolicy::Measured)
        return d;
    if (level > supportedIsaCap())
        level = supportedIsaCap(); // mirror the dispatch-table clamp
    const KernelCostTable &t = kernelCostTable();
    const KernelCostEntry &e =
        t.entries[static_cast<std::size_t>(level)]
                 [static_cast<std::size_t>(family)];
    if (e.measured && e.gather_ps_per_step > 0 &&
        e.stream_ps_per_pair > 0) {
        d.measured = true;
        d.gather_ps_per_step = e.gather_ps_per_step;
        d.stream_ps_per_pair = e.stream_ps_per_pair;
    }
    return d;
}

bool
reloadKernelCosts()
{
    std::lock_guard<std::mutex> lock(g_table_mutex);
    g_table = resolveTable();
    g_table_init = true;
    return g_table.loaded_from_disk;
}

void
setKernelCostCacheDir(std::string dir, bool reset)
{
    std::lock_guard<std::mutex> lock(g_dir_mutex);
    g_dir_overridden = !reset;
    g_dir_override = reset ? std::string{} : std::move(dir);
}

std::string
kernelCostCachePath()
{
    const std::string dir = resolvedCacheDir();
    if (dir.empty())
        return {};
    return dir + "/kernel_costs.json";
}

} // namespace detail
} // namespace panacea
