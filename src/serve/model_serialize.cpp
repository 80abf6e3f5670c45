#include "serve/model_serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <unistd.h>
#include <utility>
#include <vector>

#include "slicing/sbr.h"
#include "util/arena.h"
#include "util/fnv.h"
#include "util/mapped_file.h"

namespace panacea {
namespace serve {

namespace {

constexpr char kMagic[4] = {'P', 'N', 'C', 'M'};

static_assert(sizeof(Slice) == 1, "Slice sections assume 1-byte slices");

// --- Little-endian writer over a growing byte buffer -------------------

class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }
    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }
    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }
    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }
    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    const std::string &buffer() const { return buf_; }

  private:
    std::string buf_;
};

// --- Bounds-checked little-endian reader -------------------------------

class Reader
{
  public:
    Reader(const char *data, std::size_t size) : data_(data), size_(size)
    {}

    std::size_t remaining() const { return size_ - pos_; }
    bool exhausted() const { return pos_ == size_; }

    void
    need(std::size_t n) const
    {
        if (n > remaining())
            throw SerializeError(
                "compiled model truncated: need " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + ", have " +
                std::to_string(remaining()));
    }

    /** a*b with overflow -> SerializeError (allocation guard). */
    static std::size_t
    checkedMul(std::size_t a, std::size_t b)
    {
        if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b)
            throw SerializeError("compiled model size field overflows");
        return a * b;
    }

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }
    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data_[pos_++]))
                 << (8 * i);
        return v;
    }
    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data_[pos_++]))
                 << (8 * i);
        return v;
    }
    std::int32_t
    i32()
    {
        return static_cast<std::int32_t>(u32());
    }
    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }
    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }
    bool
    boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw SerializeError("compiled model bool field holds " +
                                 std::to_string(v));
        return v != 0;
    }
    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(data_ + pos_, n);
        pos_ += n;
        return s;
    }

    /** u32 validated against an inclusive enum range. */
    template <typename E>
    E
    enumVal(const char *what, std::uint32_t lo, std::uint32_t hi)
    {
        const std::uint32_t v = u32();
        if (v < lo || v > hi)
            throw SerializeError(std::string("compiled model ") + what +
                                 " enum value " + std::to_string(v) +
                                 " out of [" + std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]");
        return static_cast<E>(v);
    }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// --- Raw little-endian loads/stores (header + directory) -------------

std::uint32_t
loadU32(const std::byte *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(std::to_integer<unsigned>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
loadU64(const std::byte *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(std::to_integer<unsigned>(p[i]))
             << (8 * i);
    return v;
}

void
storeU32(char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void
storeU64(char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

// --- Component writers/readers ----------------------------------------

void
writeLayerSpec(Writer &w, const LayerSpec &l)
{
    w.str(l.name);
    w.u64(l.m);
    w.u64(l.kDim);
    w.u64(l.nOverride);
    w.u32(static_cast<std::uint32_t>(l.dist));
    w.f64(l.spread);
    w.f64(l.outlierRate);
    w.u64(l.repeat);
    w.i32(l.weightBits);
    w.i32(l.actBits);
    w.f64(l.weightOutlierRate);
}

LayerSpec
readLayerSpec(Reader &r)
{
    LayerSpec l;
    l.name = r.str();
    l.m = r.u64();
    l.kDim = r.u64();
    l.nOverride = r.u64();
    l.dist = r.enumVal<ActDistKind>(
        "ActDistKind", 0,
        static_cast<std::uint32_t>(ActDistKind::ImageNorm));
    l.spread = r.f64();
    l.outlierRate = r.f64();
    l.repeat = r.u64();
    l.weightBits = r.i32();
    l.actBits = r.i32();
    l.weightOutlierRate = r.f64();
    return l;
}

void
writeModelSpec(Writer &w, const ModelSpec &spec)
{
    w.str(spec.name);
    w.u64(spec.seqLen);
    w.boolean(spec.isLlm);
    w.f64(spec.fp16Ppl);
    w.f64(spec.fp32AccPct);
    w.u64(spec.layers.size());
    for (const LayerSpec &l : spec.layers)
        writeLayerSpec(w, l);
}

ModelSpec
readModelSpec(Reader &r)
{
    ModelSpec spec;
    spec.name = r.str();
    spec.seqLen = r.u64();
    spec.isLlm = r.boolean();
    spec.fp16Ppl = r.f64();
    spec.fp32AccPct = r.f64();
    const std::uint64_t layers = r.u64();
    // Each LayerSpec occupies >= 8 bytes (its name length field alone),
    // so this bound rejects absurd counts before any allocation.
    r.need(Reader::checkedMul(layers, 8));
    spec.layers.reserve(layers);
    for (std::uint64_t i = 0; i < layers; ++i)
        spec.layers.push_back(readLayerSpec(r));
    return spec;
}

void
writeServeOptions(Writer &w, const ServeModelOptions &o)
{
    w.i32(o.v);
    w.i32(o.rleIndexBits);
    w.u32(static_cast<std::uint32_t>(o.actSkip));
    w.boolean(o.enableZpm);
    w.boolean(o.enableDbs);
    w.f64(o.dbsTargetMass);
    w.i32(o.weightBitsOverride);
    w.u64(o.seed);
    w.u64(o.calibTokens);
    w.u64(o.maxLayers);
}

ServeModelOptions
readServeOptions(Reader &r)
{
    ServeModelOptions o;
    o.v = r.i32();
    o.rleIndexBits = r.i32();
    o.actSkip = r.enumVal<ActSkipMode>(
        "ActSkipMode", 0, static_cast<std::uint32_t>(ActSkipMode::None));
    o.enableZpm = r.boolean();
    o.enableDbs = r.boolean();
    o.dbsTargetMass = r.f64();
    o.weightBitsOverride = r.i32();
    o.seed = r.u64();
    o.calibTokens = r.u64();
    o.maxLayers = r.u64();
    // The checksum is not a MAC, so semantic bounds matter: v divides
    // shapes all over the restore path (v = 0 would be UB before any
    // kernel guard runs).
    if (o.v <= 0 || o.v > 4096)
        throw SerializeError("compiled model vector length " +
                             std::to_string(o.v) + " out of range");
    if (o.rleIndexBits <= 0 || o.rleIndexBits > 16)
        throw SerializeError("compiled model RLE index width " +
                             std::to_string(o.rleIndexBits) +
                             " out of range");
    return o;
}

void
writePipelineOptions(Writer &w, const AqsPipelineOptions &o)
{
    w.i32(o.weightBits);
    w.i32(o.actBits);
    w.boolean(o.enableZpm);
    w.boolean(o.enableDbs);
    w.boolean(o.histAwareZpm);
    w.f64(o.dbsTargetMass);
    w.u32(static_cast<std::uint32_t>(o.calibPolicy));
    w.f64(o.calibTailPct);
    w.i32(o.gemm.v);
    w.i32(o.gemm.rleIndexBits);
    w.u32(static_cast<std::uint32_t>(o.gemm.actSkip));
    w.boolean(o.gemm.useEq6);
}

AqsPipelineOptions
readPipelineOptions(Reader &r)
{
    AqsPipelineOptions o;
    o.weightBits = r.i32();
    o.actBits = r.i32();
    o.enableZpm = r.boolean();
    o.enableDbs = r.boolean();
    o.histAwareZpm = r.boolean();
    o.dbsTargetMass = r.f64();
    o.calibPolicy = r.enumVal<CalibrationPolicy>(
        "CalibrationPolicy", 0,
        static_cast<std::uint32_t>(CalibrationPolicy::Percentile));
    o.calibTailPct = r.f64();
    o.gemm.v = r.i32();
    o.gemm.rleIndexBits = r.i32();
    o.gemm.actSkip = r.enumVal<ActSkipMode>(
        "ActSkipMode", 0, static_cast<std::uint32_t>(ActSkipMode::None));
    o.gemm.useEq6 = r.boolean();
    return o;
}

void
writeQuantParams(Writer &w, const QuantParams &p)
{
    w.u32(static_cast<std::uint32_t>(p.scheme));
    w.i32(p.bits);
    w.f64(p.scale);
    w.i32(p.zeroPoint);
}

QuantParams
readQuantParams(Reader &r)
{
    QuantParams p;
    p.scheme = r.enumVal<QuantScheme>(
        "QuantScheme", 0,
        static_cast<std::uint32_t>(QuantScheme::Asymmetric));
    p.bits = r.i32();
    p.scale = r.f64();
    p.zeroPoint = r.i32();
    return p;
}

void
writeDbsDecision(Writer &w, const DbsDecision &d)
{
    w.u32(static_cast<std::uint32_t>(d.type));
    w.i32(d.loBits);
    w.i32(d.zpm.zeroPoint);
    w.i32(d.zpm.frequentSlice);
    w.f64(d.stdTimesZ);
}

DbsDecision
readDbsDecision(Reader &r)
{
    DbsDecision d;
    d.type = r.enumVal<DbsType>(
        "DbsType", static_cast<std::uint32_t>(DbsType::Type1),
        static_cast<std::uint32_t>(DbsType::Type3));
    d.loBits = r.i32();
    d.zpm.zeroPoint = r.i32();
    d.zpm.frequentSlice = r.i32();
    d.stdTimesZ = r.f64();
    return d;
}

/**
 * Internal-consistency checks: every structure the kernels index must
 * agree on the layer shape, or a crafted (checksum-valid) file could
 * drive out-of-bounds reads after loading.
 */
void
validateLayerShapes(const WeightOperand &op, const AqsPipelineOptions &opts,
                    std::uint64_t bias_len)
{
    if (bias_len != op.sliced.rows())
        throw SerializeError("compiled model folded bias length " +
                             std::to_string(bias_len) + " != M " +
                             std::to_string(op.sliced.rows()));
    const std::size_t m = op.sliced.rows();
    const std::size_t kk = op.sliced.cols();
    if (opts.gemm.v <= 0 ||
        m % static_cast<std::size_t>(opts.gemm.v) != 0)
        throw SerializeError(
            "compiled model weight rows not divisible by v");
    const std::size_t m_groups =
        m / static_cast<std::size_t>(opts.gemm.v);
    if (op.totalCodes.rows() != m || op.totalCodes.cols() != kk)
        throw SerializeError(
            "compiled model total codes disagree with slice planes");
    if (op.hoMask.rows() != m_groups || op.hoMask.cols() != kk)
        throw SerializeError(
            "compiled model weight HO mask has wrong shape");
}

/**
 * Bulk-byte checks, in one pass over the plane bytes: every weight
 * slice lies in SBR's [-8, 7] (the quad kernels' |w| <= 8
 * precondition), and the HO mask is exactly the zero-vector mask of
 * the HO plane (1 on every all-zero v x 1 vector, 0 elsewhere). The
 * band lists a compressed vector's quads away, so a bit on a nonzero
 * vector would make listed and streamed passes disagree; and every
 * traffic counter is derived from the mask, so a bit cleared on a
 * zero vector would change the statistics silently.
 * Preconditions: validateLayerShapes passed.
 */
void
validateWeightBytes(const WeightOperand &op, int v)
{
    const std::size_t levels = op.sliced.levels();
    const std::size_t uv = static_cast<std::size_t>(v);
    // Per step k: whether the current m-band's HO vector has a nonzero
    // slice so far.
    std::vector<std::uint8_t> nonzero(op.hoMask.cols(), 0);
    for (std::size_t l = 0; l < levels; ++l) {
        const Matrix<Slice> &plane = op.sliced.planes[l].data;
        const bool ho = l + 1 == levels;
        for (std::size_t row = 0; row < plane.rows(); ++row) {
            const Slice *src = plane.row(row).data();
            for (std::size_t k = 0; k < plane.cols(); ++k) {
                if (src[k] < signedSliceMin || src[k] > signedSliceMax)
                    throw SerializeError(
                        "compiled model weight slice " +
                        std::to_string(src[k]) + " outside [-8, 7]");
                if (ho)
                    nonzero[k] |= src[k] != 0;
            }
            if (!ho || (row + 1) % uv != 0)
                continue;
            const std::uint8_t *mask = op.hoMask.row(row / uv).data();
            for (std::size_t k = 0; k < plane.cols(); ++k) {
                if (mask[k] != (nonzero[k] ? 0 : 1))
                    throw SerializeError(
                        "compiled model weight HO mask is not the "
                        "zero-vector mask of the HO plane");
                nonzero[k] = 0;
            }
        }
    }
}

/** Shared model-level decode head: key/spec/options + fingerprint. */
struct ModelHead
{
    std::string key;
    ModelSpec spec;
    ServeModelOptions opts;
    double buildMs = 0.0;
    std::uint64_t layerCount = 0;
};

ModelHead
readModelHead(Reader &r)
{
    ModelHead head;
    head.key = r.str();
    head.spec = readModelSpec(r);
    head.opts = readServeOptions(r);
    head.buildMs = r.f64();

    // The stored key must equal the fingerprint of the decoded
    // spec+options: a body that decodes cleanly but belongs to a
    // different model/configuration is rejected here.
    const std::string derived = serveModelKey(head.spec, head.opts);
    if (head.key != derived)
        throw SerializeError("compiled model fingerprint mismatch: file "
                             "says '" +
                             head.key + "', body derives '" + derived +
                             "'");

    std::size_t expect_layers = head.spec.layers.size();
    if (head.opts.maxLayers != 0 && head.opts.maxLayers < expect_layers)
        expect_layers = head.opts.maxLayers;
    head.layerCount = r.u64();
    if (head.layerCount != expect_layers || head.layerCount == 0)
        throw SerializeError("compiled model layer count " +
                             std::to_string(head.layerCount) +
                             " != served count " +
                             std::to_string(expect_layers));
    return head;
}

/** Whether a quantizer's parameters are ones calibration can emit. */
bool
plausibleQuantParams(const QuantParams &p, int bits)
{
    return p.bits == bits && std::isfinite(p.scale) && p.scale > 0.0 &&
           p.zeroPoint >= p.codeMin() && p.zeroPoint <= p.codeMax();
}

/**
 * Semantic checks on a layer's bit widths. The checksum is not a MAC,
 * and the kernels use these values as shift counts (slice shifts, DBS
 * coarse-grid drops, code ranges), so a crafted width would be UB at
 * GEMM time rather than a SerializeError here. Each value must be
 * exactly what ServedModel::build() stamps for this layer of this
 * (spec, options): (3n+4)-bit weights and (4k+4)-bit activations of
 * at most 16 bits (the quantizer's limit), and the DBS LO width l of
 * the layer's recorded type.
 */
void
validateLayerBits(const ModelHead &head, std::size_t layer,
                  const AqsPipelineOptions &opts, const QuantParams &w,
                  const QuantParams &x, const DbsDecision &dbs)
{
    const LayerSpec &ls = head.spec.layers[layer];
    const int want_w = head.opts.weightBitsOverride != 0
                           ? head.opts.weightBitsOverride
                           : ls.weightBits;
    if (opts.weightBits != want_w || opts.weightBits < 4 ||
        opts.weightBits > 16 || (opts.weightBits - 4) % 3 != 0)
        throw SerializeError("compiled model layer " +
                             std::to_string(layer) + " weight width " +
                             std::to_string(opts.weightBits) +
                             " is not the built (3n+4)-bit width");
    if (opts.actBits != ls.actBits || opts.actBits < 4 ||
        opts.actBits > 16 || opts.actBits % 4 != 0)
        throw SerializeError("compiled model layer " +
                             std::to_string(layer) +
                             " activation width " +
                             std::to_string(opts.actBits) +
                             " is not the built (4k+4)-bit width");
    if (opts.gemm.rleIndexBits != head.opts.rleIndexBits)
        throw SerializeError("compiled model layer RLE index width "
                             "disagrees with the model's");
    if (w.scheme != QuantScheme::Symmetric ||
        !plausibleQuantParams(w, opts.weightBits) ||
        x.scheme != QuantScheme::Asymmetric ||
        !plausibleQuantParams(x, opts.actBits))
        throw SerializeError("compiled model layer " +
                             std::to_string(layer) +
                             " quantizer parameters out of range");
    // DBS classifies only 8-bit activations; every other layer is
    // type 1 with l = 4k.
    const bool dbs_layer = opts.enableDbs && opts.actBits == 8;
    const int want_lo = dbs_layer ? loBitsFor(dbs.type)
                                  : 4 * (opts.actBits / 4 - 1);
    if ((!dbs_layer && dbs.type != DbsType::Type1) ||
        dbs.loBits != want_lo || dbs.zpm.frequentSlice < 0 ||
        dbs.zpm.frequentSlice > 15)
        throw SerializeError("compiled model layer " +
                             std::to_string(layer) + " DBS LO width " +
                             std::to_string(dbs.loBits) +
                             " or frequent slice out of range");
}

// --- Sectioned, zero-copy encode/decode -------------------------------

constexpr std::size_t kHeaderBytes = 32; ///< magic..sectionCount
constexpr std::size_t kSectionsPerLayer = 4;
constexpr std::uint64_t kChecksumFrom = 24; ///< sectionCount onward

std::uint64_t
alignUp64(std::uint64_t x)
{
    return (x + (kArenaAlignment - 1)) & ~(kArenaAlignment - 1);
}

/** One directory record: where a section's bytes live in the file. */
struct SectionRange
{
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
};

/** Per-layer bulk payload byte counts (writer-side layout planning). */
struct LayerBulkSizes
{
    std::uint64_t planes = 0;
    std::uint64_t codes = 0;
    std::uint64_t mask = 0;
    std::uint64_t bias = 0;
};

} // namespace

void
writeServedModel(std::ostream &out, const ServedModel &model)
{
    const std::size_t layer_count = model.layerCount();
    const std::uint64_t section_count =
        1 + kSectionsPerLayer * layer_count;

    std::vector<LayerBulkSizes> bulk(layer_count);
    for (std::size_t i = 0; i < layer_count; ++i) {
        const WeightOperand &op = model.layer(i).weights();
        LayerBulkSizes &b = bulk[i];
        const std::uint64_t elems =
            static_cast<std::uint64_t>(op.sliced.rows()) *
            op.sliced.cols();
        b.planes = elems * op.sliced.levels() * sizeof(Slice);
        b.codes = elems * sizeof(std::int32_t);
        b.mask = static_cast<std::uint64_t>(op.hoMask.rows()) *
                 op.hoMask.cols();
        b.bias = model.layer(i).foldedBias().size() *
                 sizeof(std::int64_t);
    }

    // META: the scalar stream. Bulk payloads are referenced by section
    // index; with canonical ordering, layer i's sections start at
    // 1 + 4*i.
    Writer meta;
    meta.str(model.key());
    writeModelSpec(meta, model.spec());
    writeServeOptions(meta, model.options());
    meta.f64(model.buildMs());
    meta.u64(layer_count);
    for (std::size_t i = 0; i < layer_count; ++i) {
        const AqsLinearLayer &layer = model.layer(i);
        const WeightOperand &op = layer.weights();
        const std::uint64_t base = 1 + kSectionsPerLayer * i;
        writePipelineOptions(meta, layer.options());
        writeQuantParams(meta, layer.weightParams());
        writeQuantParams(meta, layer.activationParams());
        writeDbsDecision(meta, layer.dbsDecision());
        meta.boolean(op.sliced.signedSlices);
        meta.i32(op.sliced.sourceBits);
        meta.i32(op.sliced.loBits);
        meta.u64(op.sliced.planes.size());
        meta.u64(op.sliced.rows());
        meta.u64(op.sliced.cols());
        for (const SlicePlane &p : op.sliced.planes) {
            meta.i32(p.shift);
            meta.boolean(p.high);
        }
        meta.u64(base + 0);
        meta.u64(op.totalCodes.rows());
        meta.u64(op.totalCodes.cols());
        meta.u64(base + 1);
        meta.u64(op.hoMask.rows());
        meta.u64(op.hoMask.cols());
        meta.u64(base + 2);
        meta.u64(layer.foldedBias().size());
        meta.u64(base + 3);
    }

    // Lay the sections out: directory right after the header, every
    // section 64-byte aligned, gaps zero (the whole buffer starts
    // zeroed and only payload bytes are written).
    std::vector<SectionRange> sections(section_count);
    std::uint64_t cursor = kHeaderBytes + section_count * 16;
    const auto place = [&](std::uint64_t idx, std::uint64_t size) {
        cursor = alignUp64(cursor);
        sections[idx] = {cursor, size};
        cursor += size;
    };
    place(0, meta.buffer().size());
    for (std::size_t i = 0; i < layer_count; ++i) {
        const std::uint64_t base = 1 + kSectionsPerLayer * i;
        place(base + 0, bulk[i].planes);
        place(base + 1, bulk[i].codes);
        place(base + 2, bulk[i].mask);
        place(base + 3, bulk[i].bias);
    }
    const std::uint64_t file_size = cursor;

    std::string buf(file_size, '\0');
    std::memcpy(buf.data(), kMagic, sizeof(kMagic));
    storeU32(buf.data() + 4, kCompiledModelFormatVersion);
    storeU64(buf.data() + 8, file_size);
    // checksum at offset 16 is patched last
    storeU64(buf.data() + 24, section_count);
    for (std::uint64_t s = 0; s < section_count; ++s) {
        storeU64(buf.data() + kHeaderBytes + 16 * s,
                 sections[s].offset);
        storeU64(buf.data() + kHeaderBytes + 16 * s + 8,
                 sections[s].size);
    }
    std::memcpy(buf.data() + sections[0].offset, meta.buffer().data(),
                meta.buffer().size());
    for (std::size_t i = 0; i < layer_count; ++i) {
        const WeightOperand &op = model.layer(i).weights();
        const std::uint64_t base = 1 + kSectionsPerLayer * i;

        char *p = buf.data() + sections[base + 0].offset;
        for (const SlicePlane &plane : op.sliced.planes) {
            std::memcpy(p, plane.data.data().data(),
                        plane.data.size() * sizeof(Slice));
            p += plane.data.size() * sizeof(Slice);
        }
        std::memcpy(buf.data() + sections[base + 1].offset,
                    op.totalCodes.data().data(),
                    op.totalCodes.size() * sizeof(std::int32_t));
        std::memcpy(buf.data() + sections[base + 2].offset,
                    op.hoMask.data().data(), op.hoMask.size());
        const std::span<const std::int64_t> bias =
            model.layer(i).foldedBias();
        std::memcpy(buf.data() + sections[base + 3].offset, bias.data(),
                    bias.size() * sizeof(std::int64_t));
    }

    storeU64(buf.data() + 16,
             fnv1a64Striped(buf.data() + kChecksumFrom,
                            file_size - kChecksumFrom));

    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out)
        throw SerializeError("compiled model write failed");
}

namespace {

/**
 * Decode a whole file image IN PLACE: every validation (declared
 * size, striped checksum, directory bounds/alignment, shapes, bit
 * widths and plane shifts, slice range and HO mask, folded-bias range)
 * runs before a single view is created, and the
 * views the model keeps point into `data` - which `owner` (a
 * MappedFile or an arena-held copy) must keep alive.
 */
std::shared_ptr<const ServedModel>
decodeSections(const std::byte *data, std::size_t size,
               std::shared_ptr<const void> owner, std::size_t mapped_bytes)
{
    if (size < kHeaderBytes)
        throw SerializeError("compiled model too small (" +
                             std::to_string(size) + " bytes)");
    const std::uint64_t declared = loadU64(data + 8);
    if (declared != size)
        throw SerializeError(
            "compiled model declared size " + std::to_string(declared) +
            " != actual size " + std::to_string(size) +
            " (truncated or trailing bytes)");
    const std::uint64_t section_count = loadU64(data + 24);
    if (section_count == 0 ||
        section_count > (size - kHeaderBytes) / 16)
        throw SerializeError("compiled model section count " +
                             std::to_string(section_count) +
                             " exceeds file");
    if (loadU64(data + 16) !=
        fnv1a64Striped(data + kChecksumFrom, size - kChecksumFrom))
        throw SerializeError("compiled model checksum mismatch");

    // Directory: 64-byte aligned, in-bounds, ascending, non-overlapping.
    std::vector<SectionRange> sections(section_count);
    std::uint64_t prev_end = kHeaderBytes + section_count * 16;
    for (std::uint64_t s = 0; s < section_count; ++s) {
        SectionRange &sec = sections[s];
        sec.offset = loadU64(data + kHeaderBytes + 16 * s);
        sec.size = loadU64(data + kHeaderBytes + 16 * s + 8);
        if (sec.offset % kArenaAlignment != 0)
            throw SerializeError("compiled model section " +
                                 std::to_string(s) +
                                 " offset not 64-byte aligned");
        if (sec.offset < prev_end || sec.size > size ||
            sec.offset > size - sec.size)
            throw SerializeError("compiled model section " +
                                 std::to_string(s) + " out of bounds");
        prev_end = sec.offset + sec.size;
    }
    if (prev_end != size)
        throw SerializeError("compiled model has " +
                             std::to_string(size - prev_end) +
                             " trailing payload bytes");

    const auto sectionAt = [&](std::uint64_t idx,
                               const char *what) -> const SectionRange & {
        if (idx >= section_count)
            throw SerializeError(std::string("compiled model ") + what +
                                 " section index " + std::to_string(idx) +
                                 " out of range");
        return sections[idx];
    };

    Reader r(reinterpret_cast<const char *>(data) + sections[0].offset,
             sections[0].size);
    const ModelHead head = readModelHead(r);
    if (section_count != 1 + kSectionsPerLayer * head.layerCount)
        throw SerializeError("compiled model section count " +
                             std::to_string(section_count) +
                             " != 1 + 4 x layer count " +
                             std::to_string(head.layerCount));

    std::vector<AqsLinearLayer> layers;
    layers.reserve(head.layerCount);
    for (std::uint64_t li = 0; li < head.layerCount; ++li) {
        const AqsPipelineOptions opts = readPipelineOptions(r);
        if (opts.gemm.v != head.opts.v)
            throw SerializeError("compiled model layer v " +
                                 std::to_string(opts.gemm.v) +
                                 " != model v " +
                                 std::to_string(head.opts.v));
        const QuantParams w_params = readQuantParams(r);
        const QuantParams x_params = readQuantParams(r);
        const DbsDecision dbs = readDbsDecision(r);
        validateLayerBits(head, li, opts, w_params, x_params, dbs);

        // The weight planes must be exactly the n+1 SBR planes
        // (shift 3i, HO last) that prepareWeights() slices.
        const int sbr_n = (opts.weightBits - 4) / 3;
        WeightOperand op;
        op.sliced.signedSlices = r.boolean();
        op.sliced.sourceBits = r.i32();
        op.sliced.loBits = r.i32();
        const std::uint64_t plane_count = r.u64();
        const std::uint64_t rows = r.u64();
        const std::uint64_t cols = r.u64();
        if (!op.sliced.signedSlices ||
            op.sliced.sourceBits != opts.weightBits ||
            op.sliced.loBits != 4 ||
            plane_count != static_cast<std::uint64_t>(sbr_n) + 1)
            throw SerializeError(
                "compiled model weight slicing is not the " +
                std::to_string(opts.weightBits) + "-bit SBR layout");
        const std::size_t plane_elems = Reader::checkedMul(rows, cols);
        struct PlaneHead
        {
            std::int32_t shift;
            bool high;
        };
        std::vector<PlaneHead> plane_heads;
        plane_heads.reserve(plane_count);
        for (std::uint64_t p = 0; p < plane_count; ++p) {
            const PlaneHead h{r.i32(), r.boolean()};
            if (h.shift != sbrShift(static_cast<int>(p)) ||
                h.high != (p == plane_count - 1))
                throw SerializeError(
                    "compiled model weight plane " + std::to_string(p) +
                    " has shift " + std::to_string(h.shift) +
                    (h.high ? " (HO)" : "") + ", not SBR's");
            plane_heads.push_back(h);
        }
        const SectionRange &planes_sec =
            sectionAt(r.u64(), "slice planes");
        if (planes_sec.size !=
            Reader::checkedMul(plane_elems, plane_count))
            throw SerializeError(
                "compiled model slice plane section size mismatch");

        const std::uint64_t codes_rows = r.u64();
        const std::uint64_t codes_cols = r.u64();
        const SectionRange &codes_sec = sectionAt(r.u64(), "total codes");
        if (codes_sec.size !=
            Reader::checkedMul(Reader::checkedMul(codes_rows, codes_cols),
                               sizeof(std::int32_t)))
            throw SerializeError(
                "compiled model total codes section size mismatch");

        const std::uint64_t mask_rows = r.u64();
        const std::uint64_t mask_cols = r.u64();
        const SectionRange &mask_sec = sectionAt(r.u64(), "HO mask");
        if (mask_sec.size != Reader::checkedMul(mask_rows, mask_cols))
            throw SerializeError(
                "compiled model HO mask section size mismatch");

        const std::uint64_t bias_len = r.u64();
        const SectionRange &bias_sec = sectionAt(r.u64(), "folded bias");
        if (bias_sec.size !=
            Reader::checkedMul(bias_len, sizeof(std::int64_t)))
            throw SerializeError(
                "compiled model folded bias section size mismatch");

        // All bytes validated - build the views.
        const auto *plane_base = reinterpret_cast<const Slice *>(
            data + planes_sec.offset);
        op.sliced.planes.reserve(plane_count);
        for (std::uint64_t p = 0; p < plane_count; ++p) {
            SlicePlane plane;
            plane.shift = plane_heads[p].shift;
            plane.high = plane_heads[p].high;
            plane.data = Matrix<Slice>::fromView(
                plane_base + p * plane_elems, rows, cols);
            op.sliced.planes.push_back(std::move(plane));
        }
        op.totalCodes = MatrixI32::fromView(
            reinterpret_cast<const std::int32_t *>(data +
                                                   codes_sec.offset),
            codes_rows, codes_cols);
        op.hoMask = MatrixU8::fromView(
            reinterpret_cast<const std::uint8_t *>(data +
                                                   mask_sec.offset),
            mask_rows, mask_cols);
        validateLayerShapes(op, opts, bias_len);
        validateWeightBytes(op, opts.gemm.v);
        // Served layers fold no float bias, so each entry is -zp times
        // a row sum of K weight codes. Anything larger is not a built
        // value, and could overflow the int64 accumulator it is added
        // to.
        const auto *bias = reinterpret_cast<const std::int64_t *>(
            data + bias_sec.offset);
        const double bias_bound = static_cast<double>(x_params.codeMax()) *
                                  std::ldexp(1.0, opts.weightBits - 1) *
                                  static_cast<double>(cols);
        for (std::uint64_t i = 0; i < bias_len; ++i)
            if (std::fabs(static_cast<double>(bias[i])) > bias_bound)
                throw SerializeError("compiled model folded bias " +
                                     std::to_string(bias[i]) +
                                     " out of range");
        layers.push_back(AqsLinearLayer::restore(
            opts, w_params, x_params, dbs, std::move(op),
            ArenaVec<std::int64_t>::view({bias, bias_len})));
    }
    if (!r.exhausted())
        throw SerializeError("compiled model has " +
                             std::to_string(r.remaining()) +
                             " trailing META bytes");

    return std::make_shared<const ServedModel>(ServedModel::restore(
        head.spec, head.opts, std::move(layers), head.buildMs,
        std::move(owner), mapped_bytes));
}

// --- Load-path plumbing ------------------------------------------------

/** A 64-byte-aligned owning copy of a whole file image. */
struct ArenaImage
{
    Arena arena;
    std::byte *data = nullptr;
    std::size_t size = 0;
};

std::shared_ptr<ArenaImage>
makeArenaImage(std::size_t size)
{
    auto img = std::make_shared<ArenaImage>();
    img->size = size;
    img->data = img->arena.alloc(size);
    return img;
}

/** PANACEA_MMAP=0 disables the mapped load path process-wide. */
bool
mmapEnabledByEnv()
{
    const char *e = std::getenv("PANACEA_MMAP");
    return e == nullptr || std::string(e) != "0";
}

/**
 * Check a whole in-memory/mapped file image's envelope, then decode it
 * in place. `owner`/`mapped_bytes` describe `data`'s backing.
 */
std::shared_ptr<const ServedModel>
decodeFileImage(const std::byte *data, std::size_t size,
                std::shared_ptr<const void> owner,
                std::size_t mapped_bytes)
{
    if (size < sizeof(kMagic) + 4)
        throw SerializeError("compiled model too small (" +
                             std::to_string(size) + " bytes)");
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        throw SerializeError("compiled model magic mismatch");
    const std::uint32_t version = loadU32(data + sizeof(kMagic));
    if (!isSupportedCompiledModelVersion(version))
        throw SerializeError(
            "compiled model format version " + std::to_string(version) +
            " unsupported (readable: " +
            std::to_string(kCompiledModelFormatVersion) + ")");
    return decodeSections(data, size, std::move(owner), mapped_bytes);
}

} // namespace

std::shared_ptr<const ServedModel>
readServedModel(std::istream &in)
{
    // Bulk-read seekable streams (files are tens of MB; the
    // char-by-char iterator slurp costs more than the decode);
    // fall back to the iterator for non-seekable sources.
    std::string file;
    in.seekg(0, std::ios::end);
    if (in.good()) {
        const std::streampos end = in.tellg();
        in.seekg(0, std::ios::beg);
        file.resize(static_cast<std::size_t>(end));
        in.read(file.data(), end);
    } else {
        in.clear();
        file.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    if (in.bad())
        throw SerializeError("compiled model read failed");

    // The image must sit at 64-byte alignment for its in-place views;
    // a std::string buffer guarantees no such thing, so rehome the
    // bytes into an arena image the model then owns.
    auto img = makeArenaImage(file.size());
    if (!file.empty()) // an empty image has no arena block to fill
        std::memcpy(img->data, file.data(), file.size());
    // Pull the fields out BEFORE std::move(img): argument evaluation
    // order is unspecified, so img->size in the same call could read a
    // moved-from (null) pointer.
    const std::byte *base = img->data;
    const std::size_t size = img->size;
    return decodeFileImage(base, size, std::move(img), 0);
}

void
saveServedModel(const ServedModel &model, const std::string &path)
{
    // Per-process temp name: two processes sharing a cache directory
    // can write the same key concurrently; each must stage its own
    // file so the final rename stays atomic.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw SerializeError("cannot open " + tmp + " for writing");
        writeServedModel(out, model);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SerializeError("cannot move " + tmp + " to " + path);
    }
}

std::shared_ptr<const ServedModel>
loadServedModel(const std::string &path, bool allow_mmap)
{
    if (allow_mmap && mmapEnabledByEnv()) {
        if (std::shared_ptr<MappedFile> map = MappedFile::open(path)) {
            const std::byte *base = map->data();
            const std::size_t size = map->size();
            return decodeFileImage(base, size, map, size);
        }
        // No mapping (platform without mmap, unreadable file, ...):
        // fall through to the copying path, which reports open errors
        // properly.
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SerializeError("cannot open " + path + " for reading");
    return readServedModel(in);
}

std::string
compiledModelFileName(const std::string &key)
{
    const std::uint64_t h = fnv1a64(key.data(), key.size());
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(hex) + kCompiledModelExtension;
}

std::uint32_t
peekCompiledModelVersion(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SerializeError("cannot open " + path + " for reading");
    char envelope[sizeof(kMagic) + 4];
    in.read(envelope, sizeof(envelope));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(envelope)))
        throw SerializeError("compiled model too small (" +
                             std::to_string(in.gcount()) + " bytes)");
    if (!std::equal(kMagic, kMagic + sizeof(kMagic), envelope))
        throw SerializeError("compiled model magic mismatch");
    Reader head(envelope + sizeof(kMagic), 4);
    return head.u32();
}

namespace {

/** One disk-tier entry as the maintenance passes see it. */
struct CacheDirEntry
{
    std::filesystem::path path;
    std::uint64_t bytes = 0;
    std::filesystem::file_time_type mtime;
};

/** List the .pncm files of `dir` ("" / missing dir -> empty). */
std::vector<CacheDirEntry>
listCacheDir(const std::string &dir)
{
    std::vector<CacheDirEntry> entries;
    if (dir.empty())
        return entries;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return entries;
    for (const auto &de : it) {
        if (!de.is_regular_file(ec))
            continue;
        if (de.path().extension() != kCompiledModelExtension)
            continue;
        CacheDirEntry e;
        e.path = de.path();
        e.bytes = static_cast<std::uint64_t>(de.file_size(ec));
        if (ec)
            continue;
        e.mtime = de.last_write_time(ec);
        if (ec)
            continue;
        entries.push_back(std::move(e));
    }
    return entries;
}

/** LRU prune over an already-listed entry set (shared pass tail). */
void
pruneEntries(std::vector<CacheDirEntry> &entries, std::uint64_t max_bytes,
             CacheDirReport &report)
{
    std::uint64_t total = 0;
    for (const CacheDirEntry &e : entries)
        total += e.bytes;
    if (max_bytes > 0 && total > max_bytes) {
        // Oldest write/access timestamp first; the newest file is
        // never removed (an entry's own write-back must survive).
        std::sort(entries.begin(), entries.end(),
                  [](const CacheDirEntry &a, const CacheDirEntry &b) {
                      return a.mtime < b.mtime;
                  });
        for (std::size_t i = 0;
             i + 1 < entries.size() && total > max_bytes; ++i) {
            std::error_code ec;
            if (!std::filesystem::remove(entries[i].path, ec) || ec)
                continue;
            total -= entries[i].bytes;
            report.bytesFreed += entries[i].bytes;
            entries[i].bytes = 0;
            ++report.evicted;
        }
        entries.erase(std::remove_if(entries.begin(), entries.end(),
                                     [](const CacheDirEntry &e) {
                                         return e.bytes == 0;
                                     }),
                      entries.end());
    }
    report.bytesKept = total;
}

} // namespace

CacheDirReport
pruneCompiledModelDir(const std::string &dir, std::uint64_t max_bytes)
{
    CacheDirReport report;
    std::vector<CacheDirEntry> entries = listCacheDir(dir);
    report.scanned = entries.size();
    pruneEntries(entries, max_bytes, report);
    return report;
}

CacheDirReport
sweepCompiledModelDir(const std::string &dir, std::uint64_t max_bytes)
{
    CacheDirReport report;
    std::vector<CacheDirEntry> entries = listCacheDir(dir);
    report.scanned = entries.size();
    std::vector<CacheDirEntry> kept;
    kept.reserve(entries.size());
    for (CacheDirEntry &e : entries) {
        bool stale = false;
        bool corrupt = false;
        try {
            stale = !isSupportedCompiledModelVersion(
                peekCompiledModelVersion(e.path.string()));
        } catch (const SerializeError &) {
            corrupt = true;
        }
        if (!stale && !corrupt) {
            kept.push_back(std::move(e));
            continue;
        }
        std::error_code ec;
        if (!std::filesystem::remove(e.path, ec) || ec) {
            kept.push_back(std::move(e));
            continue;
        }
        report.bytesFreed += e.bytes;
        if (stale)
            ++report.staleVersion;
        else
            ++report.corrupt;
    }
    pruneEntries(kept, max_bytes, report);
    return report;
}

} // namespace serve
} // namespace panacea
