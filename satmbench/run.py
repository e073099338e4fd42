#!/usr/bin/env python3
"""Build and run the SATM benchmark (README.md in this directory).

    python3 satmbench/run.py --workload kv-mixed --seed 1 --seconds 10 --trace 0

Builds satm_bench from ../src into .bench_build/satmbench, runs one
workload, and prints as the last line of standard output
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it carries the host record and sample counts. Every result is
also appended, with the host and source identity, to .bench_out/runs.jsonl
(or --record PATH), which compare.py reads.

Exits nonzero without printing a result when the build fails, satm_bench's
output checks fail, or a metric is missing.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "satmbench"
BINARY = BUILD / "satm_bench"
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def check_call(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"satmbench: {' '.join(cmd)} failed ({proc.returncode})")
        sys.exit(2)


def build():
    """Configures once, then (re)builds only satm_bench and its libraries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("satmbench: program sources (src/) not found next to the benchmark")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", str(BUILD), "--target", "satm_bench",
                "-j", jobs])


def source_identity():
    """The git sha when the tree is a git checkout, else a digest of src/."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return {"git_sha": proc.stdout.strip()}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": None, "src_sha256": digest.hexdigest()}


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=str(ROOT / ".bench_out" / "runs.jsonl"))
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"satmbench: satm_bench did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    finally:
        # A run that fails a check or is killed leaves its log directories.
        for wal in (ROOT / ".bench_out").glob(f"wal-{proc.pid}-*"):
            shutil.rmtree(wal, ignore_errors=True)
    if proc.returncode != 0:
        log(f"satmbench: satm_bench exited with {proc.returncode}; no result")
        sys.exit(proc.returncode)
    lines = [l for l in stdout.splitlines() if l.strip()]
    record = json.loads(lines[-1])

    metrics = record["metrics"]
    want = expected_metrics(args.trace)
    missing = [m for m in want or [] if m not in metrics]
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if missing or bad or not record["correct"] or record["attempted"] < 1:
        log(f"satmbench: incomplete result: missing {missing}, "
            f"non-finite {bad}")
        sys.exit(1)
    if want is not None:
        metrics = {name: metrics[name] for name in want}

    record["host"].update(source_identity())
    out = Path(args.record)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as f:
        f.write(json.dumps(record) + "\n")

    print(json.dumps({"host": record["host"], "samples": record["samples"]}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
