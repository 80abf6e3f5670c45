#!/usr/bin/env python3
"""CI gate over bench_kernels --density-sweep output.

Asserts the measured-cost stream/list dispatch policy holds up
against the static rule across the activation-density sweep:

  - parity: every sweep point compared both policies' outputs against
    the scalar reference bit-for-bit;
  - no point may lose more than 2% to the static rule
    (measured_over_static >= 0.98 everywhere);
  - at least one point must win or tie (max ratio >= 1.0) - on every
    calibrated host the low-density end is a real listed-vs-stream
    crossover win, not noise.

This is a perf gate on shared runners, so the CI step retries the
bench once before treating a miss as real.

Usage: check_density_sweep.py BENCH_kernels.json
"""

import json
import sys


def main():
    if len(sys.argv) != 2:
        print("usage: check_density_sweep.py BENCH_kernels.json",
              file=sys.stderr)
        return 2
    payload = json.load(open(sys.argv[1]))
    sweep = payload.get("density_sweep", [])
    if not sweep:
        print("no density_sweep in payload (run bench_kernels with "
              "--density-sweep)", file=sys.stderr)
        return 1
    ratios = [p["measured_over_static"] for p in sweep]
    print("measured/static GMAC/s by density:",
          ", ".join("%d%%: %.3f" % (p["density_pct"],
                                    p["measured_over_static"])
                    for p in sweep))
    if not all(p["parity"] for p in sweep):
        print("FAIL: a sweep point broke bit-parity with the reference",
              file=sys.stderr)
        return 1
    if min(ratios) < 0.98:
        print("FAIL: measured policy lost %.1f%% to static at %d%% "
              "density (budget: 2%%)"
              % ((1 - min(ratios)) * 100,
                 sweep[ratios.index(min(ratios))]["density_pct"]),
              file=sys.stderr)
        return 1
    if max(ratios) < 1.0:
        print("FAIL: measured policy never reached parity with static "
              "(max ratio %.3f)" % max(ratios), file=sys.stderr)
        return 1
    print("ok: min ratio %.3f, max ratio %.3f"
          % (min(ratios), max(ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
