/**
 * @file
 * panacea_cache_sweep - maintenance tool for a compiled-model cache
 * directory (the disk tier of PreparedModelCache / PANACEA_CACHE_DIR).
 *
 * Removes every .pncm file that a reader would reject anyway - stale
 * format versions and corrupt envelopes - and, with --max-mb, enforces
 * a size cap by least-recently-used pruning (disk hits refresh a
 * file's timestamp, so idle entries go first; the newest entry always
 * survives). Entries of the readable format version are left intact;
 * older versions (the retired v1 stream included) are removed as
 * stale, since the disk tier rebuilds them anyway.
 *
 * Usage:
 *   panacea_cache_sweep <dir> [--max-mb=N] [--dry-run]
 *
 * Exit code 0 on success (even when nothing was removed), 1 on usage
 * errors or a missing directory.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "serve/model_serialize.h"

int
main(int argc, char **argv)
{
    std::string dir;
    std::uint64_t max_bytes = 0;
    bool dry_run = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--max-mb=", 0) == 0) {
            const long mb = std::strtol(arg.c_str() + 9, nullptr, 10);
            if (mb <= 0) {
                std::cerr << "bad --max-mb value in '" << arg << "'\n";
                return 1;
            }
            max_bytes =
                static_cast<std::uint64_t>(mb) * 1024ull * 1024ull;
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option " << arg << "\n"
                      << "usage: panacea_cache_sweep <dir> [--max-mb=N]"
                         " [--dry-run]\n";
            return 1;
        } else if (dir.empty()) {
            dir = arg;
        } else {
            std::cerr << "more than one directory given\n";
            return 1;
        }
    }
    if (dir.empty()) {
        std::cerr << "usage: panacea_cache_sweep <dir> [--max-mb=N]"
                     " [--dry-run]\n";
        return 1;
    }
    if (!std::filesystem::is_directory(dir)) {
        std::cerr << dir << " is not a directory\n";
        return 1;
    }

    if (dry_run) {
        // Report what a sweep WOULD remove - stale/corrupt envelopes
        // plus the size-cap LRU evictions - without touching anything.
        struct Entry
        {
            std::filesystem::file_time_type mtime;
            std::uint64_t bytes;
        };
        std::uint64_t scanned = 0, stale = 0, corrupt = 0, bytes = 0;
        std::vector<Entry> kept;
        for (const auto &de : std::filesystem::directory_iterator(dir)) {
            if (!de.is_regular_file() ||
                de.path().extension() !=
                    panacea::serve::kCompiledModelExtension)
                continue;
            ++scanned;
            bytes += de.file_size();
            try {
                if (!panacea::serve::isSupportedCompiledModelVersion(
                        panacea::serve::peekCompiledModelVersion(
                            de.path().string()))) {
                    ++stale;
                    continue;
                }
            } catch (const panacea::serve::SerializeError &) {
                ++corrupt;
                continue;
            }
            kept.push_back({de.last_write_time(), de.file_size()});
        }
        // Replay the LRU pass over the survivors: oldest first, the
        // newest entry always spared - same rule as the real prune.
        std::uint64_t evict = 0, kept_bytes = 0;
        for (const Entry &e : kept)
            kept_bytes += e.bytes;
        if (max_bytes > 0 && kept_bytes > max_bytes) {
            std::sort(kept.begin(), kept.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.mtime < b.mtime;
                      });
            for (std::size_t i = 0;
                 i + 1 < kept.size() && kept_bytes > max_bytes; ++i) {
                kept_bytes -= kept[i].bytes;
                ++evict;
            }
        }
        std::cout << "dry run: " << scanned << " entries (" << bytes
                  << " bytes), would remove " << stale
                  << " stale-version + " << corrupt << " corrupt + "
                  << evict << " size-cap evictions (keeping "
                  << kept_bytes << " bytes)\n";
        return 0;
    }

    const panacea::serve::CacheDirReport report =
        panacea::serve::sweepCompiledModelDir(dir, max_bytes);
    std::cout << "swept " << dir << ": " << report.scanned
              << " entries scanned, removed " << report.staleVersion
              << " stale-version + " << report.corrupt << " corrupt + "
              << report.evicted << " size-cap evictions ("
              << report.bytesFreed << " bytes freed, "
              << report.bytesKept << " kept)\n";
    return 0;
}
