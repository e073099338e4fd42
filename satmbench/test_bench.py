#!/usr/bin/env python3
"""The benchmark's own tests: output checkers, seed determinism, the
compare rule, and failure without program sources.

    python3 satmbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("kv-mixed", "kv-commit", "wire-open")


def drive(*args):
    # In a directory of its own: a failed check leaves its log directory.
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        return subprocess.run([str(run.BINARY), *args], cwd=tmp,
                              capture_output=True, text=True, timeout=170)


def short(workload, *extra):
    return drive("--workload", workload, "--seed", "3", "--seconds", "0.4",
                 *extra)


def has_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return bool(lines) and lines[-1].startswith("{")


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_clean_runs_pass(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                proc = short(wl)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                rec = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(rec["correct"])
                self.assertGreater(rec["attempted"], 0)

    def test_traced_kv_mixed_measures_the_wire(self):
        proc = short("kv-mixed", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        self.assertGreaterEqual(metrics["net.server.batch_avg"]["value"], 1)
        self.assertGreaterEqual(metrics["net.server.max_queue_depth"]["value"],
                                1)
        self.assertEqual(metrics["net.client.unmatched"]["value"], 0)
        self.assertGreater(metrics["kv.store.get_p50_ns"]["value"], 0)

    def test_corrupted_results_are_rejected(self):
        cases = [("kv-mixed", "ledger"), ("kv-mixed", "recovery"),
                 ("kv-commit", "recovery"), ("wire-open", "wire"),
                 ("wire-open", "recovery")]
        for wl, kind in cases:
            with self.subTest(workload=wl, corrupt=kind):
                proc = short(wl, "--corrupt", kind)
                self.assertEqual(proc.returncode, 3, proc.stderr)
                self.assertIn("CHECK FAILED", proc.stderr)
                self.assertFalse(has_result(proc.stdout))

    def test_same_seed_same_op_stream(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            for wl in WORKLOADS:
                with self.subTest(workload=wl):
                    paths = []
                    for i, seed in enumerate(("7", "7", "8")):
                        path = Path(tmp) / f"{wl}-{i}.ops"
                        proc = drive("--workload", wl, "--seed", seed,
                                     "--seconds", "1", "--dump-ops",
                                     str(path))
                        self.assertEqual(proc.returncode, 0, proc.stderr)
                        paths.append(path.read_bytes())
                    self.assertGreater(len(paths[0]), 1000)
                    self.assertEqual(paths[0], paths[1])
                    self.assertNotEqual(paths[0], paths[2])


class CompareRule(unittest.TestCase):
    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        faster = [v * 0.8 for v in base]
        slower = [v * 1.3 for v in base]
        noisy = [50, 150, 60, 140, 100, 70, 130, 100, 90, 110]
        lower = "lower"
        self.assertEqual(compare.verdict(base, faster, lower, 0.1)["verdict"],
                         "better")
        self.assertEqual(compare.verdict(base, slower, lower, 0.1)["verdict"],
                         "worse")
        self.assertEqual(compare.verdict(base, base, lower, 0.1)["verdict"],
                         "within")
        self.assertEqual(compare.verdict(noisy, noisy, lower, 0.1)["verdict"],
                         "unresolved")
        self.assertEqual(
            compare.verdict(base, faster, "higher", 0.1)["verdict"], "worse")


class Packaging(unittest.TestCase):
    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "kv-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(has_result(proc.stdout))


if __name__ == "__main__":
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    unittest.main()
