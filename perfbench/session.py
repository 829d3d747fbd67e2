"""One workload session in its own process: load the KB files, answer the
planned queries in a closed loop for a fixed time, and write the answers and
timings to ``result.json`` for the parent to verify.

Usage: ``python3 session.py <workdir> <src dir> <seconds> <trace 0|1>``;
``<workdir>/plan.json`` names the workload, its files and its queries.  The
process imports only the package under test and this directory's
``tracing`` module, so its peak memory is the package's.

In trace mode the loop runs twice for half the time each, untraced and then
with every layer wrapped in spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter


def _load(workdir: Path, plan: dict, hs, repeats: int):
    """Load the workload's KB files ``repeats`` times; returns the objects
    of the last load and every load time."""
    times, kb = [], None
    for _ in range(repeats):
        kb = None
        t0 = clock()
        if plan["workload"] == "formula-session":
            kb = hs.core.parse_horn_cnf((workdir / plan["files"][0]).read_text())
        elif plan["workload"] == "charset-session":
            kb = [hs.core.parse_model_set((workdir / f).read_text()) for f in plan["files"]]
        elif plan["workload"] == "model-compile":
            kb = [hs.core.parse_horn_cnf((workdir / f).read_text()) for f in plan["files"]]
        times.append(clock() - t0)
    return kb, times


def _clause(hs, text: str):
    return hs.core.Clause.from_literals(int(tok) for tok in text.split())


def _query_op(hs, kb, route: str, alpha: int, clause):
    if route == "entails":
        return hs.engine.entails(kb, clause)
    if route == "charset-entails":
        return hs.engine.charset_entails(kb, clause)
    mode, repr_ = route.split("-")[:2]
    if mode == "exterior" and repr_ == "charset":
        return hs.exterior.deduce_exterior_charset(kb, clause, alpha, method=route.split("-")[2])
    module = getattr(hs, mode)
    return getattr(module, f"deduce_{mode}_{repr_}")(kb, clause, alpha)


def _compile_op(hs, theory):
    """The ``convert`` path, then the ``oracle --charset`` re-closure."""
    models = hs.oracle.all_models(theory)
    charset = hs.engine.characteristic_set(models)
    text = hs.core.serialize_model_set(charset)
    closed = hs.engine.intersection_closure(hs.core.parse_model_set(text))
    return models, text, closed


def _cli_argv(workdir: Path, plan: dict, q: dict) -> list[str]:
    mode, repr_ = q["route"].split("-")[:2]
    argv = ["deduce", "--mode", mode, "--alpha", str(q["alpha"]),
            "--theory" if repr_ == "formula" else "--charset", str(workdir / plan["files"][q["kb"]]),
            f"--clause={q['clause']}", "--witness"]
    if mode == "exterior" and repr_ == "charset":
        argv += ["--method", q["route"].split("-")[2]]
    return argv


def _parse_cli(code: int, out: str) -> tuple:
    lines = out.split()
    if code not in (0, 1) or not lines or lines[0] not in ("YES", "NO"):
        return None, None, f"exit {code}: {out.strip()[:200]}"
    if (lines[0] == "YES") != (code == 0):
        return None, None, f"exit {code} with answer {lines[0]}"
    witness = None
    if "witness" in lines:
        row = lines[lines.index("witness") + 1]
        witness = hex(sum(1 << i for i, ch in enumerate(row) if ch == "1"))
    return int(code == 0), witness, None


def run_loop(workdir: Path, plan: dict, hs, kb, seconds: float, in_process_cli: bool,
             src: str, tracer=None) -> dict:
    """Closed loop, one operation at a time, until ``seconds`` have passed."""
    queries = plan["queries"]
    clauses = [_clause(hs, q["clause"]) if "clause" in q else None for q in queries]
    env = dict(os.environ, PYTHONPATH=src)
    records, compile_out = [], {}
    start = clock()
    deadline = start + seconds
    i = 0
    while clock() < deadline:
        qi = i % len(queries)
        q = queries[qi]
        i += 1
        answer = witness = trace_len = error = None
        t0 = clock()
        try:
            if plan["workload"] == "model-compile":
                theory = kb[q["theory"]]
                out = tracer.span("op", _compile_op, hs, theory) if tracer else _compile_op(hs, theory)
            elif plan["workload"] == "cli-oneshot" and in_process_cli:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    argv = _cli_argv(workdir, plan, q)
                    code = tracer.span("op", hs.cli.main, argv) if tracer else hs.cli.main(argv)
                out = (code, buf.getvalue())
            elif plan["workload"] == "cli-oneshot":
                proc = subprocess.run([sys.executable, "-m", "hornsafe.cli", *_cli_argv(workdir, plan, q)],
                                      capture_output=True, text=True, env=env, timeout=120)
                out = (proc.returncode, proc.stdout + proc.stderr)
            else:
                target = kb[q["kb"]] if isinstance(kb, list) else kb
                args = (hs, target, q["route"], q["alpha"], clauses[qi])
                out = tracer.span("op", _query_op, *args) if tracer else _query_op(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the loop
            out = None
            error = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if out is not None:
            if plan["workload"] == "model-compile":
                models, text, closed = out
                digest = hash((tuple(m.bits for m in models), text, tuple(m.bits for m in closed)))
                if qi not in compile_out:
                    compile_out[qi] = {"models": [m.bits for m in models], "charset": text,
                                       "closure": [m.bits for m in closed], "digest": digest}
                answer = int(compile_out[qi]["digest"] == digest)
            elif plan["workload"] == "cli-oneshot":
                answer, witness, error = _parse_cli(*out)
            else:
                answer = int(out.entailed)
                witness = hex(out.witness.bits) if out.witness is not None else None
                trace_len = len(out.trace)
        records.append([qi, elapsed, answer, witness, trace_len, error])
    return {"ops": records, "elapsed": clock() - start, "compile": compile_out}


def _import_times(src: str, repeats: int) -> list[float]:
    """Fresh-process ``import hornsafe.cli`` times, one child at a time."""
    code = "import time; t = time.perf_counter(); import hornsafe.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=src)
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def _setup(workdir: Path, plan: dict, hs, src: str, repeats: int):
    if plan["workload"] == "cli-oneshot":
        return None, _import_times(src, repeats)
    return _load(workdir, plan, hs, repeats)


def main(argv: list[str]) -> int:
    workdir, src, seconds, trace = Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1"
    sys.path.insert(0, src)
    import hornsafe as hs
    import hornsafe.cli  # noqa: F401 - bound as hs.cli

    plan = json.loads((workdir / "plan.json").read_text())
    cli = plan["workload"] == "cli-oneshot"
    result: dict = {}
    # Half of the set-up repeats run before the timed phase and half after,
    # so a slow spell of the machine does not set every sample.
    repeats = plan["setup_repeats"]
    kb, result["setup_s"] = _setup(workdir, plan, hs, src, (repeats + 1) // 2)
    if not trace:
        result.update(run_loop(workdir, plan, hs, kb, seconds, False, src))
        kb = None  # the loads below must not add to the peak memory
        result["setup_s"] += _setup(workdir, plan, hs, src, repeats // 2)[1]
    else:
        from tracing import Tracer

        result["untraced"] = run_loop(workdir, plan, hs, kb, seconds / 2, True, src)
        tracer = Tracer()
        tracer.install(hs)
        try:
            if not cli:
                kb = None
                kb, _ = _load(workdir, plan, hs, 1)
            result["traced"] = run_loop(workdir, plan, hs, kb, seconds / 2, True, src, tracer)
        finally:
            tracer.remove()
        result["spans"] = tracer.summary()
    usage = resource.RUSAGE_CHILDREN if cli and not trace else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
