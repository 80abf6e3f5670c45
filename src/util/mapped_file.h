/**
 * @file
 * Read-only memory-mapped file, the zero-copy backing of the compiled
 * model load path (serve/model_serialize.h).
 *
 * The mapping is PROT_READ + MAP_SHARED: every process mapping the
 * same .pncm shares one set of physical pages through the page cache,
 * which is what makes replica spin-up near-free - the bytes are read
 * from disk (at most) once per machine, not once per process, and a
 * warm second load touches no disk at all.
 *
 * SIGBUS discipline: touching a mapped page whose backing file has
 * been truncated underneath the mapping raises SIGBUS. The loader
 * therefore snapshots size() at open time, validates the envelope and
 * full-file checksum against that snapshot BEFORE handing out any
 * views, and never re-stats the file. A file replaced via the
 * rename-into-place protocol (saveServedModel) keeps the old inode
 * alive for existing mappings, so post-validation truncation is not a
 * concern on the cache-dir paths this backs.
 *
 * On platforms without mmap (non-POSIX), open() returns nullptr and
 * callers fall through to the copying load path - behaviour degrades
 * in speed only, never in correctness.
 */

#ifndef PANACEA_UTIL_MAPPED_FILE_H
#define PANACEA_UTIL_MAPPED_FILE_H

#include <cstddef>
#include <memory>
#include <span>
#include <string>

namespace panacea {

/**
 * RAII read-only shared mapping of a whole file.
 *
 * Returned as shared_ptr so operand views can keep the mapping alive
 * via the owning model's payload-owner handle.
 */
class MappedFile
{
  public:
    /**
     * Map `path` read-only (MAP_SHARED).
     *
     * @return the mapping, or nullptr when the file cannot be opened,
     *         is empty, or the platform has no mmap. Callers must
     *         treat nullptr as "use the copying path", not an error.
     */
    static std::shared_ptr<MappedFile> open(const std::string &path);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** @return start of the mapped bytes. */
    const std::byte *data() const { return data_; }
    /** @return mapped length in bytes (the open-time file size). */
    std::size_t size() const { return size_; }
    /** @return the whole mapping as a span. */
    std::span<const std::byte>
    bytes() const
    {
        return {data_, size_};
    }

  private:
    MappedFile(const std::byte *data, std::size_t size)
        : data_(data), size_(size)
    {}

    const std::byte *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace panacea

#endif // PANACEA_UTIL_MAPPED_FILE_H
