"""Benchmark for hornsafe: one workload per run, every answer checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload formula-session --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of the workload; with ``--trace 1`` the run profiles
every workload, half of the time untraced and half with spans around each
layer, and reports the per-layer metrics.  The line before the last is the
run record: seed, versions, KB sizes, YES/NO mix per route and the sample
count behind every percentile.  See README.md for the metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SESSION_TIMEOUT_S = 150


def run_session(workdir: Path, seconds: float, trace: bool) -> dict:
    """Run one session process and wait for it; its result file is the output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "session.py"), str(workdir), str(SRC), repr(seconds), "1" if trace else "0"],
        capture_output=True, text=True, timeout=SESSION_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"session for {workdir.name} failed:\n{proc.stderr[-2000:]}")
    return json.loads((workdir / "result.json").read_text())


def build(name: str, seed: int, work: Path):
    wl = workloads.WORKLOADS[name](random.Random(f"{seed}:{name}"), work / name)
    wl.build()
    return wl


def end_to_end(wl, result: dict) -> tuple[dict, dict]:
    ops = result["ops"]
    lat = [op[1] for op in ops]
    report = wl.verify(result)
    p, tail_s = workloads.tail(lat)
    attempted = len(ops)
    metrics = {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "ops_per_s": (attempted / result["elapsed"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": (1 - report["failed"] / attempted, "frac"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    record = {
        "kb": wl.kb_sizes,
        "attempted": attempted,
        "failed": report["failed"],
        "errors_frac": report["failed"] / attempted,
        "setup_samples": len(result["setup_s"]),
        "op_samples": attempted,
        "op_tail_percentile": p,
        "verification": {k: v for k, v in report.items() if k != "failed"},
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hornsafe" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'hornsafe'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    record = {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    try:
        if args.trace:
            names = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
            per_workload = {}
            for name in names:
                wl = build(name, args.seed, work)
                per_workload[name] = (wl, run_session(wl.dir, args.seconds, True))
            metrics, record["workloads"], correct, attempted, failed = layers.layer_metrics(per_workload)
        else:
            wl = build(args.workload, args.seed, work)
            result = run_session(wl.dir, args.seconds, False)
            metrics, wrec = end_to_end(wl, result)
            record["workloads"] = {args.workload: wrec}
            attempted, failed = wrec["attempted"], wrec["failed"]
            correct = failed == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
