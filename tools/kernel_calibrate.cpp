/**
 * @file
 * panacea_kernel_calibrate - resolve (and persist) the per-host
 * stream-vs-listed kernel cost calibration (core/kernel_cost_model.h).
 *
 * The first run on a host measures every runnable ISA tier x kernel
 * family and writes PANACEA_CACHE_DIR/kernel_costs.json; later runs
 * load that file with zero re-measurements - which is exactly what the
 * CI calibration smoke asserts by running this tool twice and checking
 * `loaded_from_disk` / `measurements` in the JSON summary below.
 *
 * Usage:
 *   panacea_kernel_calibrate [--dir=<cache-dir>]
 *
 * --dir overrides PANACEA_CACHE_DIR. Without either, the calibration
 * is measured but not persisted (path reported as ""). Exit code 0 on
 * success, 1 on usage errors.
 */

#include <iostream>
#include <string>

#include "core/kernel_cost_model.h"
#include "util/cpu_features.h"

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--dir=", 0) == 0) {
            panacea::detail::setKernelCostCacheDir(arg.substr(6));
        } else {
            std::cerr << "unknown option " << arg << "\n"
                      << "usage: panacea_kernel_calibrate "
                         "[--dir=<cache-dir>]\n";
            return 1;
        }
    }

    const panacea::detail::KernelCostTable &table =
        panacea::detail::kernelCostTable();

    std::cout << "{\n  \"path\": \""
              << panacea::detail::kernelCostCachePath()
              << "\",\n  \"isa_cap\": \""
              << panacea::toString(table.isa_cap)
              << "\",\n  \"loaded_from_disk\": "
              << (table.loaded_from_disk ? "true" : "false")
              << ",\n  \"measurements\": " << table.measurements
              << ",\n  \"entries\": [\n";
    bool first = true;
    for (std::size_t l = 0; l < panacea::kIsaLevelCount; ++l)
        for (std::size_t f = 0;
             f < panacea::detail::kKernelFamilyCount; ++f) {
            const panacea::detail::KernelCostEntry &e =
                table.entries[l][f];
            if (!e.measured)
                continue;
            if (!first)
                std::cout << ",\n";
            first = false;
            std::cout
                << "    {\"isa\": \""
                << panacea::toString(static_cast<panacea::IsaLevel>(l))
                << "\", \"family\": \"" << (f == 0 ? "pass4" : "generic")
                << "\", \"gather_ps_per_step\": " << e.gather_ps_per_step
                << ", \"stream_ps_per_pair\": " << e.stream_ps_per_pair
                << "}";
        }
    std::cout << "\n  ]\n}\n";
    return 0;
}
