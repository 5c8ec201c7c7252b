#!/usr/bin/env python3
"""Benchmark entry point named by BENCHMARK.json.

Builds bench/e2e/e2e.exe from the checkout it sits in, runs one workload
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 its per-layer metrics.

    python3 bench/e2e/run.py --workload steady --seed 7 --seconds 15 --trace 0
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXE = ROOT / "_build" / "default" / "bench" / "e2e" / "e2e.exe"
OUT = ROOT / ".e2e-out"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no dune-project or lib/)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[section]]

    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", str(ROOT), "bench/e2e/e2e.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    json_path = OUT / f"{stem}.json"
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(json_path)]
    if args.trace:
        cmd += ["--trace", str(OUT / f"{stem}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2e.exe did not finish within {RUN_TIMEOUT_S} s")
    # e2e.exe's own lines (name value unit, and its result object) go
    # first; only the last line is the result.
    sys.stdout.write(proc.stdout)
    if not json_path.is_file():
        fail(f"e2e.exe exited {proc.returncode} without a result")
    result = json.loads(json_path.read_text())
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"result lacks {', '.join(missing)}")
    print(json.dumps({
        "correct": result["correct"] and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
