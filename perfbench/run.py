#!/usr/bin/env python3
"""Build and run the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload chat_decode --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark from the checkout's sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build); later calls only
rebuild what changed. The benchmark runs with every PANACEA_*
variable removed from its environment, so the caller's environment
cannot change what is measured. Its standard output is passed through:
the last line is the result object. The exit code is the benchmark's
(nonzero on a wrong output or a failed build, with no result printed
for the latter).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chat_decode", "prefill_offline", "fleet_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure (once) and build the benchmark; @return the binary."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no panacea sources at " + ROOT)
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PANACEA_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
