#!/usr/bin/env python3
"""The benchmark's own tests, at reduced scale.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

For each workload a reduced pass (fewer strata, a smaller fleet, one pass)
must print every metric BENCHMARK.json names, with its unit, in both the
untraced and the traced run; the traced run must reproduce the untraced
virtual outputs; two runs of one seed must agree on every virtual output;
and an injected checksum mismatch must show up in `failed` and `failed_frac`.
"""
import json
import math
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=7, trace=0, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--reduced", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600, env=dict(os.environ))
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr[-3000:]}")
    lines = p.stdout.strip().splitlines()
    meta = next(l for l in lines if l.startswith("perfbench-meta "))
    return json.loads(lines[-1]), json.loads(meta[len("perfbench-meta "):])


class ReducedPass(unittest.TestCase):
    def check_metrics(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec_metrics}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertTrue(math.isfinite(got[name]["value"]), name)

    def test_untraced_metrics_and_determinism(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, meta_a = run(w)
                self.check_metrics(a, SPEC["end_to_end"])
                self.assertTrue(a["correct"], meta_a["failures"])
                self.assertEqual(a["failed"], 0)
                self.assertEqual(meta_a["failed_frac"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(a["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                b, meta_b = run(w)
                self.assertEqual(meta_a["virtual_digest"],
                                 meta_b["virtual_digest"])
                for k in ("virtual_s", "link_kb"):
                    self.assertEqual(a["metrics"][k], b["metrics"][k])

    def test_traced_metrics_match_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                t, meta_t = run(w, trace=1)
                self.check_metrics(t, SPEC["per_layer"])
                self.assertTrue(t["correct"], meta_t["failures"])
                self.assertEqual(t["metrics"]["trace.virtual_match"]["value"], 1)
                _, meta_u = run(w)
                self.assertEqual(meta_t["virtual_digest"],
                                 meta_u["virtual_digest"])

    def test_injected_mismatch_counts_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, meta = run(w, 7, 0, "--inject-mismatch")
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertGreater(meta["failed_frac"], 0)
                self.assertTrue(meta["failures"])


if __name__ == "__main__":
    unittest.main()
