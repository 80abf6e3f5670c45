"""Contract tests of the serving benchmark.

    cd perfbench/tests && PERFBENCH_BIN=../../.bench_build/perfbench \
        python3 -m unittest -v test_run

`ctest --test-dir .bench_build` sets PERFBENCH_BIN itself. Without it
the tests go through perfbench/run.py, which builds first. Each smoke
run is short (2 s timed) and must pass its own output check.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seconds=2, seed=3):
    """@return (exit code, result object, detail object)."""
    binary = os.environ.get("PERFBENCH_BIN")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if binary:
        cmd = [binary] + args + ["--out-dir", os.path.dirname(binary)]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "run.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])


class SpecTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, kind):
        spec = load_spec()
        want = {m["name"]: m["unit"] for m in spec[kind]}
        code, res, detail = run(workload, trace)
        self.assertEqual(code, 0, detail)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        # Every printed metric is declared, with its declared unit.
        self.assertEqual(set(res["metrics"]), set(want))
        for name, m in res["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        ops = detail["detail"]["ops"]
        self.assertTrue(ops["outputs_bit_exact"])
        self.assertGreaterEqual(ops["outputs_checked"], 1)
        return res, detail

    def test_chat_decode(self):
        self.check_result("chat_decode", 0, "end_to_end")

    def test_prefill_offline(self):
        self.check_result("prefill_offline", 0, "end_to_end")

    def test_fleet_mixed(self):
        res, _ = self.check_result("fleet_mixed", 0, "end_to_end")
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_fleet_mixed_traced(self):
        _, detail = self.check_result("fleet_mixed", 1, "per_layer")
        path = detail["detail"]["trace_file"]
        if not os.path.isabs(path):
            path = os.path.join(ROOT, path)
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for n in ("request", "fleet.router_wait", "engine.queue_wait",
                  "engine.execute", "replay", "replay.gemm"):
            self.assertIn(n, names)


if __name__ == "__main__":
    unittest.main()
