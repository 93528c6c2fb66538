#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py            # from the checkout root

Builds through perfbench/run.py like any benchmark run, then checks:
  * the same seed reproduces the program set and every exact count;
  * a different seed changes the set;
  * the traced run gives the layer shares the workload design predicts
    (dominant layer >= 0.5 on its workload, <= 0.05 where it is bypassed)
    and covers >= 0.9 of op time with layer spans;
  * every workload's oracle catches an injected mismatch (exit code 1);
  * a directory holding only BENCHMARK.json and perfbench/ fails cleanly.
Takes a few minutes: every run makes at least one full pass over its set.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["compile", "execute", "predict", "profile"]

# Layer-share predictions: (share metric, workload where it dominates,
# workloads where it must stay near zero).
SHARES = [
    (("verify.certify_share", "verify.verify_share"), "compile",
     ["execute", "predict", "profile"]),
    (("rules.search_share",), None, ["execute"]),
    (("simnet.share",), "predict", ["compile"]),
    (("obs.profile_share",), "profile", ["compile", "execute", "predict"]),
    (("exec.share",), "execute", ["compile", "predict", "profile"]),
]
EXACT_TRACED = ["rules.nodes_expanded", "rules.rewrites_applied",
                "verify.certificates", "simnet.messages", "mpsim.messages",
                "mpsim.bytes"]
EXACT_UNTRACED = ["sim_makespan_ops", "sim_speedup_geomean"]


def bench(workload, seed, trace, *extra, seconds="0.5", cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", seconds, "--trace", str(trace), *extra],
                       cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = re.search(r"digest ([0-9a-f]+)", p.stderr)
    return p.returncode, result, digest.group(1) if digest else None, p.stderr


def value(result, name):
    return result["metrics"][name]["value"]


class Benchmark(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.traced[w] = [bench(w, 7, 1) for _ in range(2)]

    def test_runs_are_correct(self):
        for w in WORKLOADS:
            for code, result, _, err in self.traced[w]:
                with self.subTest(workload=w):
                    fails = [l for l in err.splitlines() if l.startswith("FAIL")]
                    self.assertEqual(result["failed"], 0, "\n".join(fails[:3]))
                    self.assertTrue(result["correct"])
                    self.assertEqual(code, 0)

    def test_same_seed_reproduces_set_and_counts(self):
        for w in WORKLOADS:
            (_, a, da, _), (_, b, db, _) = self.traced[w]
            self.assertEqual(da, db, w)
            for name in EXACT_TRACED:
                self.assertEqual(value(a, name), value(b, name), f"{w} {name}")
        for w in ["compile", "execute", "predict"]:
            runs = [bench(w, 7, 0) for _ in range(2)]
            for name in EXACT_UNTRACED:
                self.assertEqual(value(runs[0][1], name), value(runs[1][1], name), f"{w} {name}")

    def test_different_seed_changes_set(self):
        _, _, other, _ = bench("execute", 8, 0)
        self.assertNotEqual(other, self.traced["execute"][0][2])

    def test_layer_shares_match_predictions(self):
        for names, dominant, bypassed in SHARES:
            def share(w):
                return sum(value(self.traced[w][0][1], n) for n in names)
            if dominant:
                self.assertGreaterEqual(share(dominant), 0.5, f"{names} on {dominant}")
            for w in bypassed:
                self.assertLessEqual(share(w), 0.05, f"{names} on {w}")

    def test_trace_covers_ops(self):
        for w in WORKLOADS:
            self.assertGreaterEqual(value(self.traced[w][0][1], "trace.coverage"), 0.9, w)

    def test_injected_mismatch_fails_the_run(self):
        for w in WORKLOADS:
            code, result, _, _ = bench(w, 7, 0, "--inject-mismatch")
            with self.subTest(workload=w):
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_bare_directory_fails_without_result(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, result, _, _ = bench("compile", 1, 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
