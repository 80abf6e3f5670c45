/**
 * @file
 * Operand memory backing for the zero-copy load path: a 64-byte-aligned
 * owning arena plus an own-or-view vector.
 *
 * The compiled-model format (serve/model_serialize.h) lays every
 * bulk payload - slice planes, total codes, HO masks, folded bias - in
 * 64-byte-aligned sections so a loader can hand the kernels NON-OWNING
 * views straight into the file image instead of copying into
 * per-structure vectors. The same operand structs (Matrix,
 * AqsLinearLayer) must also keep working on the
 * build path, where they own their storage. ArenaVec is that dual
 * backing:
 *
 *   - OWNING:  constructed from a std::vector (the build path). Deep
 *     copies, mutation allowed via mutableData().
 *   - VIEW:    constructed from a span into memory someone else keeps
 *     alive - an mmap'ed file (util/mapped_file.h) or an Arena holding
 *     the file image. Shallow copies, immutable.
 *
 * Arena is the owning side for loads that cannot (or may not) mmap:
 * one 64-byte-aligned allocation holds the whole file image, views
 * point into it, and the model keeps the Arena alive via shared_ptr -
 * same object graph as the mapped path, one bulk copy instead of
 * thousands of per-structure ones.
 *
 * Lifetime contract: whoever creates views is responsible for parking
 * the backing object (MappedFile / Arena) in the owning model
 * (ServedModel::restore's payload-owner parameter). A view outliving
 * its backing is use-after-free, exactly like any span.
 */

#ifndef PANACEA_UTIL_ARENA_H
#define PANACEA_UTIL_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "util/logging.h"

namespace panacea {

/** Alignment of every arena allocation and every .pncm section. */
inline constexpr std::size_t kArenaAlignment = 64;

/**
 * A minimal owning bump allocator: grab aligned blocks, free them all
 * at destruction. Not thread-safe; allocate before sharing.
 */
class Arena
{
  public:
    Arena() = default;
    ~Arena()
    {
        for (void *block : blocks_)
            ::operator delete[](block, std::align_val_t(kArenaAlignment));
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate `bytes` (may be 0) at kArenaAlignment. Never throws
     *  short of bad_alloc; the memory lives until the Arena dies. */
    std::byte *
    alloc(std::size_t bytes)
    {
        if (bytes == 0)
            return nullptr;
        void *p = ::operator new[](bytes, std::align_val_t(kArenaAlignment));
        blocks_.push_back(p);
        bytes_ += bytes;
        return static_cast<std::byte *>(p);
    }

    /** @return total bytes handed out (keep-alive accounting). */
    std::size_t bytes() const { return bytes_; }

  private:
    std::vector<void *> blocks_;
    std::size_t bytes_ = 0;
};

/**
 * An immutable-by-default sequence that either OWNS its elements (a
 * std::vector, the build path) or VIEWS memory kept alive elsewhere
 * (the zero-copy load path). Read access is uniform; writers must go
 * through mutableData(), which panics on a view - load-path operands
 * are immutable by design.
 */
template <typename T>
class ArenaVec
{
  public:
    ArenaVec() = default;

    /** Owning: adopt a vector (the build path). */
    ArenaVec(std::vector<T> own) // NOLINT(google-explicit-constructor)
        : own_(std::move(own)), view_(own_.data(), own_.size())
    {}

    /** Non-owning view into memory someone else keeps alive. */
    static ArenaVec
    view(std::span<const T> data)
    {
        ArenaVec v;
        v.view_ = data;
        v.isView_ = true;
        return v;
    }

    ArenaVec(const ArenaVec &other) { *this = other; }
    ArenaVec &
    operator=(const ArenaVec &other)
    {
        if (this == &other)
            return *this;
        own_ = other.own_;
        isView_ = other.isView_;
        view_ = isView_ ? other.view_
                        : std::span<const T>(own_.data(), own_.size());
        return *this;
    }
    ArenaVec(ArenaVec &&other) noexcept { *this = std::move(other); }
    ArenaVec &
    operator=(ArenaVec &&other) noexcept
    {
        if (this == &other)
            return *this;
        own_ = std::move(other.own_);
        isView_ = other.isView_;
        view_ = isView_ ? other.view_
                        : std::span<const T>(own_.data(), own_.size());
        other.own_.clear();
        other.view_ = {};
        other.isView_ = false;
        return *this;
    }

    const T *data() const { return view_.data(); }
    std::size_t size() const { return view_.size(); }
    bool empty() const { return view_.empty(); }
    const T &operator[](std::size_t i) const { return view_[i]; }
    auto begin() const { return view_.begin(); }
    auto end() const { return view_.end(); }
    operator std::span<const T>() const { return view_; } // NOLINT

    /** @return whether this is a non-owning view. */
    bool isView() const { return isView_; }

    /** Mutable access; panics on a view (load-path operands are
     *  immutable - copy into an owning ArenaVec first). */
    T *
    mutableData()
    {
        panic_if(isView_, "mutating a view-backed ArenaVec");
        return own_.data();
    }

  private:
    std::vector<T> own_;
    std::span<const T> view_;
    bool isView_ = false;
};

} // namespace panacea

#endif // PANACEA_UTIL_ARENA_H
