"""A/B runs of the benchmark in two checkouts, with a verdict per metric.

Usage: ``python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload W --seed S
--pairs N``, or ``python3 tools/ab.py --revs PARENT CHANGE --workload W
--seed S --pairs N``.  The two directories are checkouts the caller made
(say with ``git archive``), at paths of equal length: the setup time of a
run follows the length of its checkout's path.  With ``--revs`` the tool
makes the checkouts itself: detached ``git worktree`` checkouts of two
revisions of the repository in the current directory, in the sibling
directories ``parent`` and ``change`` of a new temporary directory (set
``TMPDIR`` to place it), removed with it when the comparison ends or
fails.  Each pair runs the benchmark command of ``BENCHMARK.json`` with
``--workload W --seed S --seconds <run_seconds> --trace 0`` once in each
checkout, one process at a time; the parent runs first in even pairs and
the change first in odd ones.  Every run's metrics are printed as it
ends.  Then, per end-to-end metric of ``BENCHMARK.json``: the parent's
median and quartiles, the change's median, the pairs the change won, the
one-sided sign-test p of those wins (:func:`sign_p`), and a verdict
(:func:`verdict`): better, worse, unchanged or unresolved.
Besides the worktrees, the tool only reads ``BENCHMARK.json`` and the
checkouts' benchmark output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
#: Share of the pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9
#: Largest sign-test p (:func:`sign_p`) at which a gain is claimed: 5 of 5
#: pairs won gives 0.031 and 9 of 10 gives 0.011, but 3 of 3 gives 0.125.
SIGN_P = 0.05


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


def sign_p(won: int, pairs: int) -> float:
    """One-sided sign-test p of ``won`` wins in ``pairs`` pairs: the chance
    of at least that many when each pair is a fair coin.  A tie counts as
    a pair not won, which only makes the test stricter."""
    return sum(math.comb(pairs, k) for k in range(won, pairs + 1)) / 2 ** pairs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound`` (a fraction of the parent's median).  The runs show a
    gain when the change wins at least :data:`WIN_SHARE` of the pairs and
    its median is further from the parent's, on the better side, than the
    parent's interquartile range; or when that range is wider than
    ``bound`` times the parent's median and every change run beats every
    parent run.  A shown gain reads ``better`` when the sign test of the
    wins gives p at most :data:`SIGN_P`, else ``unresolved``: with fewer
    than five pairs no gain reads ``better``.  With no gain shown, a range
    within ``bound`` times the parent's median reads ``unchanged``, since
    the runs could have shown a move the size of the bound, and a wider
    one ``unresolved``."""
    sign = 1 if better == "higher" else -1
    p, c = statistics.median(parent), statistics.median(change)
    gain = (c - p) * sign
    if gain < -bound * abs(p):
        return "worse"
    q1, q3 = quartiles(parent)
    won = wins(parent, change, better)
    if not (won >= WIN_SHARE * len(parent) and gain > q3 - q1):
        if q3 - q1 <= bound * abs(p):
            return "unchanged"
        if min(x * sign for x in change) <= max(x * sign for x in parent):
            return "unresolved"  # some change run does not beat every parent run
    return "better" if sign_p(won, len(parent)) <= SIGN_P else "unresolved"


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


def git(*args: str) -> None:
    """Run git in the current directory; a failure stops the comparison."""
    proc = subprocess.run(["git", *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed:\n{proc.stderr[-2000:]}")


@contextlib.contextmanager
def worktrees(parent: str, change: str):
    """Detached worktrees of the revisions ``parent`` and ``change`` at
    ``<tmp>/parent`` and ``<tmp>/change``, paths of equal length, for the
    ``with`` block; both and ``<tmp>`` are removed after it."""
    root = Path(tempfile.mkdtemp(prefix="ab-"))
    made = []
    try:
        for side, rev in (("parent", parent), ("change", change)):
            git("worktree", "add", "--detach", str(root / side), rev)
            made.append(root / side)
        yield made
    finally:
        for path in made:
            git("worktree", "remove", "--force", str(path))
        shutil.rmtree(root, ignore_errors=True)


def compare(parent: Path, change: Path, workload: str, seed: int, pairs: int) -> None:
    """Run the pairs in the two checkouts and print the runs and the table."""
    bench = json.loads(BENCHMARK.read_text())
    flags = ["--workload", workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    sides = {"parent": parent, "change": change}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(sides[side], bench["command"], flags))
            print(f"pair {i + 1} {side}: {json.dumps(runs[side][-1], sort_keys=True)}", flush=True)
    print(f"{'metric':<12} {'parent p50':>11} {'parent q1..q3':>21} {'change p50':>11} {'wins':>6} "
          f"{'sign p':>8}  verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        q1, q3 = quartiles(before)
        won = wins(before, after, metric["better"])
        print(f"{name:<12} {statistics.median(before):11.4g} {q1:10.4g}..{q3:<10.4g} "
              f"{statistics.median(after):11.4g} {won:3d}/{pairs:<2d} {sign_p(won, pairs):8.3g}  "
              f"{verdict(before, after, metric['better'], metric['bound'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", type=Path, nargs="*", metavar="DIR", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--revs", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if len(args.dirs) != (0 if args.revs else 2):
        parser.error("give either PARENT_DIR CHANGE_DIR or --revs PARENT CHANGE")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.revs:
        with worktrees(*args.revs) as (parent, change):
            compare(parent, change, args.workload, args.seed, args.pairs)
        return 0
    parent, change = (d.resolve() for d in args.dirs)
    if len(str(parent)) != len(str(change)):
        parser.error("the two checkouts must be at paths of equal length")
    compare(parent, change, args.workload, args.seed, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
