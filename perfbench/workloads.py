"""The four workloads: how each builds its inputs from the seed, and how each
checks the answers its session returned.

Why these four (see README.md for the table of metrics they move):

* ``formula-session`` -- one large Horn CNF loaded once, then queries on all
  four formula routes: parsing, the propagation index each route rebuilds
  per call, and propagation dominate.
* ``charset-session`` -- eight characteristic-model KBs, thousands of queries
  on the six charset routes: numpy member scans and the pos-side tuple
  enumeration; no parsing or propagation inside the loop.
* ``model-compile`` -- small theories through ``convert`` and the
  ``oracle --charset`` re-closure: the only place the AND-closure check and
  the closure itself run.
* ``cli-oneshot`` -- one ``hornsafe deduce`` process per query on medium KBs:
  import and load are paid on every query, nothing is reused.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter, defaultdict
from pathlib import Path

import kbgen
from kbgen import PlannedQuery, route_kind
from reference import RefTheory, and_above, falsifies, meet_irreducibles

FORMULA_ROUTES = ("entails", "interior-formula", "exterior-formula", "envelope-formula")
CHARSET_ROUTES = ("charset-entails", "interior-charset", "exterior-charset-neg",
                  "exterior-charset-pos", "exterior-charset-auto", "envelope-charset")
CLI_ROUTES = ("interior-formula", "exterior-formula", "envelope-formula",
              "interior-charset", "exterior-charset-auto", "envelope-charset")


#: Tail percentiles tried from the highest down; the first with at least
#: ten samples beyond it is reported.  The rungs sit far from the sample
#: counts a 15 s run yields (about 40-70, 140-210 and 2,000-3,000), so the
#: percentile does not flip between runs; p70 catches a slow run of 34-39.
TAIL_LADDER = (99, 90, 75, 70)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank (the median when there are fewer
    than 34 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, (ordered[(n - 1) // 2] + ordered[n // 2]) / 2


def _slots(routes, alphas=(0, 1, 2)) -> list[tuple[str, int, bool]]:
    """One cycle of (route, alpha, wanted answer), routes interleaved so
    every prefix of a cycle mixes them."""
    per_route = {r: [(r, 0, w) for w in (True, False)] if r.endswith("entails")
                 else [(r, a, w) for a in alphas for w in (True, False)] for r in routes}
    out = []
    while any(per_route.values()):
        for r in routes:
            if per_route[r]:
                out.append(per_route[r].pop(0))
    return out


def _clause_text(q) -> str:
    return " ".join([f"-{i}" for i in q[0]] + [str(j) for j in q[1]])


class FormulaChecker:
    """Reference answers and witness checks for a planted Horn CNF."""

    def __init__(self, t: kbgen.PlantedTheory):
        self.t = t
        self.ref = RefTheory(t.n, t.clauses)
        self.planted_bits = t.planted
        self.planted_slack = self.ref.min_true_literals(t.planted)

    def truth(self, kind, q, alpha):
        return self.ref.truth(kind, q, alpha)

    def in_target(self, kind, w, q, alpha) -> bool:
        if kind in ("kb", "interior"):
            return self.ref.min_true_literals(w) >= (alpha if kind == "interior" else 0) + 1
        if kind == "exterior":
            return self.ref.within(w, alpha)
        return self.ref.in_envelope(w, q, alpha)

    def planted_in(self, kind, alpha) -> bool:
        return self.planted_slack >= (alpha if kind == "interior" else 0) + 1

    def consistent(self) -> bool:
        return self.ref.closure(()) is not None and self.planted_slack >= 1


class CharsetChecker:
    """Exact answers from the block structure; KB membership also by a plain
    AND of the members above the witness."""

    def __init__(self, kb: kbgen.BlockKB):
        self.kb = kb
        self.oracle = kb.oracle
        self.planted_bits = kb.theory.planted

    def truth(self, kind, q, alpha):
        return self.oracle.truth(kind, q, alpha)

    def in_target(self, kind, w, q, alpha) -> bool:
        if kind == "kb" and and_above(self.kb.members, w) != w:
            return False
        return self.oracle.in_target(kind, w, alpha)

    def planted_in(self, kind, alpha) -> bool:
        return self.oracle.in_target(kind, self.kb.theory.planted, alpha)

    def consistent(self) -> bool:
        return bool(self.kb.members)


CHECKS = ("oracle", "witness", "alpha0", "order", "planted")


def check_answer(checker, pq: PlannedQuery, answer: bool, witness) -> list[str]:
    """Names of the checks an answer fails (empty when it passes all)."""
    kind, q, alpha = route_kind(pq.route), pq.query, pq.alpha
    bad = []
    if answer != pq.expected:
        bad.append("oracle")
    if not answer and witness is not None:
        if not (falsifies(witness, q) and checker.in_target(kind, witness, q, alpha)):
            bad.append("witness")
    if alpha == 0 and answer != checker.truth("kb", q, 0):
        bad.append("alpha0")
    kb_yes = checker.truth("kb", q, 0)
    if (kind == "interior" and kb_yes and not answer) or \
       (kind == "exterior" and answer and not kb_yes) or \
       (kind == "envelope" and answer and not checker.truth("exterior", q, alpha)):
        bad.append("order")
    if answer and falsifies(checker.planted_bits, q) and checker.planted_in(kind, alpha):
        bad.append("planted")
    return bad


class QueryWorkload:
    """Shared verification for the workloads whose operations are queries."""

    name = ""
    routes: tuple[str, ...] = ()

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.checkers: list = []
        self.planned: list[PlannedQuery] = []
        self.kb_index: list[int] = []

    def write_plan(self, files: list[str], repeats: int) -> None:
        queries = [{"route": pq.route, "alpha": pq.alpha, "clause": _clause_text(pq.query), "kb": k}
                   for pq, k in zip(self.planned, self.kb_index)]
        plan = {"workload": self.name, "files": files, "setup_repeats": repeats, "queries": queries}
        (self.dir / "plan.json").write_text(json.dumps(plan))

    def consistent_frac(self) -> float:
        return sum(c.consistent() for c in self.checkers) / len(self.checkers)

    def verify(self, phase: dict) -> dict:
        """Check every operation; returns failures and per-route counts."""
        ops = phase["ops"]
        failed = 0
        check_fail: Counter = Counter()
        yes: Counter = Counter()
        done: Counter = Counter()
        errors: Counter = Counter()
        memo: dict = {}
        for qi, _, answer, witness, _, error in ops:
            pq = self.planned[qi]
            if error is not None or answer is None:
                failed += 1
                errors[(error or "no answer").split(":")[0]] += 1
                continue
            key = (qi, answer, witness)
            if key not in memo:
                checker = self.checkers[self.kb_index[qi]]
                w = int(witness, 16) if witness is not None else None
                memo[key] = check_answer(checker, pq, bool(answer), w)
            bad = memo[key]
            done[pq.route] += 1
            yes[pq.route] += answer
            if bad:
                failed += 1
                check_fail.update(bad)
        return {
            "failed": failed,
            "failed_checks": dict(check_fail),
            "errors": dict(errors),
            "yes_frac": {r: yes[r] / done[r] for r in done},
            "answers": {r: {"yes": yes[r], "no": done[r] - yes[r]} for r in done},
            "checks": {r: list(CHECKS) for r in self.routes},
            "unchecked": [r for r in self.routes if r not in done],
        }


class FormulaSession(QueryWorkload):
    name = "formula-session"
    routes = FORMULA_ROUTES
    N, LITERALS, GADGETS = 10_000, 250_000, 150

    def build(self) -> None:
        t = kbgen.planted_theory(self.rng, self.N, self.LITERALS, self.GADGETS)
        (self.dir / "kb.hcnf").write_text(kbgen.hcnf_text(t.n, t.clauses))
        checker = FormulaChecker(t)
        self.checkers = [checker]
        cands = kbgen.candidates(self.rng, t, 700)
        self.planned = kbgen.plan_queries(self.rng, checker, cands, _slots(self.routes), cycles=8)
        self.kb_index = [0] * len(self.planned)
        self.kb_sizes = {"n": t.n, "clauses": len(t.clauses), "literals": t.literals}
        self.write_plan(["kb.hcnf"], repeats=4)


class CharsetSession(QueryWorkload):
    name = "charset-session"
    routes = CHARSET_ROUTES
    # Eight KBs of one shape, queries interleaved: the interior-charset NO
    # answers at alpha 2 take most of the time, and their cost depends on
    # each KB's random block rules; one KB alone moves ops_per_s by about
    # 25 % from seed to seed, four still by about 20 %.
    KBS, BITS, RULES = 8, [10] * 6, 4

    def build(self) -> None:
        per_kb = []
        files = []
        for k in range(self.KBS):
            kb = kbgen.planted_blocks(self.rng, self.BITS, self.RULES)
            files.append(f"kb{k}.models")
            (self.dir / files[-1]).write_text(kbgen.models_text(kb.n, kb.members))
            checker = CharsetChecker(kb)
            self.checkers.append(checker)
            cands = kbgen.candidates(self.rng, kb.theory, 400)
            per_kb.append(kbgen.plan_queries(
                self.rng, checker, cands, _slots(self.routes), cycles=13,
                accept=lambda route, q: not route.endswith("pos") or len(q[1]) <= 2))
        cycle = len(_slots(self.routes))
        for start in range(0, len(per_kb[0]), cycle):
            for k, planned in enumerate(per_kb):
                self.planned += planned[start:start + cycle]
                self.kb_index += [k] * len(planned[start:start + cycle])
        self.kb_sizes = {"n": self.checkers[0].kb.n, "kbs": self.KBS,
                         "members": [len(c.kb.members) for c in self.checkers]}
        self.write_plan(files, repeats=31)


class CliOneshot(QueryWorkload):
    name = "cli-oneshot"
    routes = CLI_ROUTES

    def build(self) -> None:
        files = []
        per_kb: list[list] = []
        sizes = defaultdict(list)
        for k in range(2):
            t = kbgen.planted_theory(self.rng, 2000, 20_000, 20)
            files.append(f"kb{k}.hcnf")
            (self.dir / files[-1]).write_text(kbgen.hcnf_text(t.n, t.clauses))
            fc = FormulaChecker(t)
            sizes["literals"].append(t.literals)
            cb = kbgen.planted_blocks(self.rng, [10] * 4, 4)
            files.append(f"kb{k}.models")
            (self.dir / files[-1]).write_text(kbgen.models_text(cb.n, cb.members))
            cc = CharsetChecker(cb)
            sizes["members"].append(len(cb.members))
            self.checkers += [fc, cc]
            # Two formula queries per charset query: formula processes are
            # slower by the parse, and a 1:1 mix would put the median on the
            # gap between the two latency clusters.
            slots = _slots(self.routes[:3])
            slots += [s for s in _slots(self.routes[3:]) if s[2] == ((s[1] + k) % 2 == 0)]
            fq = kbgen.plan_queries(self.rng, fc, kbgen.candidates(self.rng, t, 200),
                                    [s for s in slots if s[0].endswith("formula")], cycles=1)
            cq = kbgen.plan_queries(self.rng, cc, kbgen.candidates(self.rng, cb.theory, 200),
                                    [s for s in slots if not s[0].endswith("formula")], cycles=1)
            per_kb.append(_two_to_one([(pq, 2 * k) for pq in fq], [(pq, 2 * k + 1) for pq in cq]))
        order = [x for pair in zip(*per_kb) for x in pair]
        self.planned = [pq for pq, _ in order]
        self.kb_index = [k for _, k in order]
        self.kb_sizes = {"literals": sizes["literals"], "members": sizes["members"]}
        self.write_plan(files, repeats=6)


def _two_to_one(major: list, minor: list) -> list:
    """Two items of ``major`` then one of ``minor``, until both run out."""
    out = []
    for i, x in enumerate(major):
        out.append(x)
        if i % 2 == 1 and minor:
            out.append(minor.pop(0))
    return out + minor


class ModelCompile:
    """Small theories through ``convert`` and the ``oracle --charset`` path;
    every output is compared with brute-force enumeration."""

    name = "model-compile"
    THEORIES, N, LO, HI, CLAUSES = 24, 18, 500, 1500, 80

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def build(self) -> None:
        self.theories: list[kbgen.SmallTheory] = []
        self.charsets: list[set[int]] = []
        files = []
        for i in range(self.THEORIES):
            # golden-ratio spread of target sizes: every prefix of the batch
            # covers the size range evenly
            target = self.LO + (self.HI - self.LO) * ((i * 0.6180339887) % 1.0)
            st = kbgen.small_theory(self.rng, self.N, int(target * 0.95), int(target * 1.05), self.CLAUSES)
            files.append(f"t{i}.hcnf")
            (self.dir / files[-1]).write_text(kbgen.hcnf_text(st.n, st.clauses))
            self.theories.append(st)
            self.charsets.append({int(x) for x in meet_irreducibles(st.models)})
        plan = {"workload": self.name, "files": files, "setup_repeats": 31,
                "queries": [{"theory": i} for i in range(self.THEORIES)]}
        (self.dir / "plan.json").write_text(json.dumps(plan))
        counts = [len(st.models) for st in self.theories]
        self.kb_sizes = {"theories": len(counts), "models_min": min(counts), "models_max": max(counts),
                         "models_mean": sum(counts) / len(counts),
                         "charset_mean": sum(map(len, self.charsets)) / len(self.charsets)}

    def consistent_frac(self) -> float:
        return sum(len(st.models) > 0 for st in self.theories) / len(self.theories)

    def verify(self, phase: dict) -> dict:
        ops, compile_out = phase["ops"], phase["compile"]
        failed = 0
        errors: Counter = Counter()
        bad_theories = {}
        for key, out in compile_out.items():
            st = self.theories[int(key)]
            models = set(st.models.tolist())
            rows = out["charset"].split("\n")[1:]
            charset = {sum(1 << i for i, ch in enumerate(r) if ch == "1") for r in rows if r}
            problems = []
            if set(out["models"]) != models:
                problems.append("all_models differs from enumeration")
            if charset != self.charsets[int(key)]:
                problems.append("charset differs from the meet-irreducible models")
            if set(out["closure"]) != models:
                problems.append("closure of the charset differs from the model set")
            if problems:
                bad_theories[key] = problems
        for qi, _, answer, _, _, error in ops:
            if error is not None or not answer or str(qi) in bad_theories:
                failed += 1
                errors[(error or "wrong or unstable output").split(":")[0]] += 1
        return {"failed": failed, "errors": dict(errors), "bad_theories": bad_theories,
                "checks": {"convert+reclose": ["enumeration", "meet-irreducibles", "closure"]},
                "unchecked": []}


WORKLOADS = {w.name: w for w in (FormulaSession, CharsetSession, ModelCompile, CliOneshot)}
