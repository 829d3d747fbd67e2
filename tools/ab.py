"""A/B runs of the benchmark in two checkouts, with a verdict per metric.

Usage: ``python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload W --seed S
--pairs N``.  The two directories are checkouts the caller made (say with
``git archive``), at paths of equal length: the setup time of a run follows
the length of its checkout's path.  Each pair runs the benchmark command of
``BENCHMARK.json`` with ``--workload W --seed S --seconds <run_seconds>
--trace 0`` once in each checkout, one process at a time; the parent runs
first in even pairs and the change first in odd ones.  Every run's metrics
are printed as it ends.  Then, per end-to-end metric of ``BENCHMARK.json``:
the parent's median and quartiles, the change's median, the pairs the
change won, and a verdict (:func:`verdict`).  The tool only reads
``BENCHMARK.json`` and the checkouts' benchmark output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
#: Share of the pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles of ``values`` (both the value when
    there is one)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count
    for neither side."""
    sign = 1 if better == "higher" else -1
    return sum((c - p) * sign > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound`` (a fraction of the parent's median); ``better`` when the
    change wins at least :data:`WIN_SHARE` of the pairs and its median is
    further from the parent's, on the better side, than the parent's
    interquartile range; else ``unresolved``."""
    p, c = statistics.median(parent), statistics.median(change)
    gain = c - p if better == "higher" else p - c
    if gain < -bound * abs(p):
        return "worse"
    q1, q3 = quartiles(parent)
    if wins(parent, change, better) >= WIN_SHARE * len(parent) and gain > q3 - q1:
        return "better"
    return "unresolved"


def run(checkout: Path, command: list[str], args: list[str]) -> dict[str, float]:
    """One benchmark run in ``checkout``: its end-to-end metrics by name.
    A run that fails or reports a wrong answer stops the comparison."""
    proc = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run in {checkout} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run in {checkout} reported {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        parser.error("the two checkouts must be at paths of equal length")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads(BENCHMARK.read_text())
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(sides[side], bench["command"], flags))
            print(f"pair {i + 1} {side}: {json.dumps(runs[side][-1], sort_keys=True)}", flush=True)
    print(f"{'metric':<12} {'parent p50':>11} {'parent q1..q3':>21} {'change p50':>11} {'wins':>6}  verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        q1, q3 = quartiles(parent)
        print(f"{name:<12} {statistics.median(parent):11.4g} {q1:10.4g}..{q3:<10.4g} "
              f"{statistics.median(change):11.4g} {wins(parent, change, metric['better']):3d}/{args.pairs:<2d} "
              f"{verdict(parent, change, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
