"""Seeded input generation: planted-consistent Horn CNF theories,
characteristic-model sets of planted block structures, batches of small
theories, and query lists planned against the reference oracles.

Everything is deterministic in its ``random.Random`` argument and uses no
code from the package under test, so a change to the package cannot change
the inputs.  Variables are 1-based as in the ``.hcnf`` format; model bits
are 0-based (bit ``i`` holds ``x_{i+1}``), and ``.models`` rows are read
leftmost-first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from reference import Block, BlockOracle, HornClause, Query, enumerate_models, meet_irreducibles

#: Every planted clause keeps at least this many true literals under the
#: planted model, so that model lies in the alpha-interior for alpha <= 2
#: and the interior routes can answer NO at every alpha the queries use.
MIN_TRUE = 3


@dataclass
class PlantedTheory:
    n: int
    planted: int
    clauses: list[HornClause]
    gadgets: list[Query] = field(default_factory=list)  # (neg, pos) of each gadget

    @property
    def literals(self) -> int:
        return sum(len(b) + (1 if h else 0) for h, b in self.clauses)


def _clause(rng: random.Random, on: list[int], off: list[int], length: int,
            definite: bool, min_true: int) -> HornClause | None:
    """A clause of ``length`` literals with at least ``min_true`` of them
    true under the planted model (``on``/``off`` are its true/false
    variables); None when the pools are too small for the drawn shape."""
    false_lits = rng.randint(0, length - min_true)
    if not definite:
        if false_lits > len(on) or length - false_lits > len(off):
            return None
        return 0, tuple(sorted(rng.sample(on, false_lits) + rng.sample(off, length - false_lits)))
    head_true = rng.random() < (length - false_lits) / length
    body_on = false_lits - (0 if head_true else 1)
    body_off = length - 1 - body_on
    if body_on + head_true > len(on) or body_off + (not head_true) > len(off):
        return None
    body = rng.sample(on, body_on) + rng.sample(off, body_off)
    head = rng.choice(on if head_true else off)
    while head in body:
        head = rng.choice(on if head_true else off)
    return head, tuple(sorted(body))


def _gadget(rng: random.Random, on: list[int], off: list[int], k4: bool) -> tuple[Query, list[HornClause]]:
    """A small structure that makes the exterior and envelope routes answer
    YES at alpha >= 1; every clause has three literals, all true in the
    planted model.

    K4 (``k4``): four variables off and one on; every 3-subset of the four is
    forbidden together and every 2-subset implies the fifth.  Triangle: three
    variables off and two on, with ``a b -> p1``, ``b x -> p2``,
    ``a x -> p1``; no negative clause, so the block keeps its top model."""
    if k4:
        four = tuple(sorted(rng.sample(off, 4)))
        head = rng.choice(on)
        clauses = [(0, tri) for tri in combinations(four, 3)]
        clauses += [(head, pair) for pair in combinations(four, 2)]
        return (four, (head,)), clauses
    a, b, x = rng.sample(off, 3)
    p1, p2 = rng.sample(on, 2)
    clauses = [(p1, tuple(sorted((a, b)))), (p2, tuple(sorted((b, x)))), (p1, tuple(sorted((a, x))))]
    return (tuple(sorted((a, b, x))), tuple(sorted((p1, p2)))), clauses


def planted_theory(rng: random.Random, n: int, target_literals: int, gadgets: int,
                   min_len: int = 3, max_len: int = 7, definite_frac: float = 0.75) -> PlantedTheory:
    """Random Horn CNF with mixed definite and negative clauses, all
    satisfied (with MIN_TRUE true literals) by a hidden model, plus
    ``gadgets`` K4 gadgets, which give the exterior and envelope routes YES
    answers at alpha 1 and 2 on clauses of five literals."""
    planted = rng.getrandbits(n)
    while gadgets and not (n - planted.bit_count() >= 4 and planted.bit_count() >= 1):
        planted = rng.getrandbits(n)
    on = [i for i in range(1, n + 1) if planted >> (i - 1) & 1]
    off = [i for i in range(1, n + 1) if not planted >> (i - 1) & 1]
    seen: set[HornClause] = set()
    clauses: list[HornClause] = []
    gadget_list = []

    def add(c: HornClause | None) -> int:
        if c is None or c in seen:
            return 0
        seen.add(c)
        clauses.append(c)
        return len(c[1]) + (1 if c[0] else 0)

    literals = 0
    for _ in range(gadgets):
        shape, group = _gadget(rng, on, off, k4=True)
        gadget_list.append(shape)
        literals += sum(add(c) for c in group)
    while literals < target_literals:
        length = rng.randint(min_len, max_len)
        literals += add(_clause(rng, on, off, length, rng.random() < definite_frac, MIN_TRUE))
    rng.shuffle(clauses)
    return PlantedTheory(n, planted, clauses, gadget_list)


def hcnf_text(n: int, clauses: list[HornClause]) -> str:
    lines = [f"c planted-consistent Horn CNF, {len(clauses)} clauses", f"p hcnf {n} {len(clauses)}"]
    for head, body in clauses:
        lines.append(" ".join([f"-{i}" for i in body] + ([str(head)] if head else []) + ["0"]))
    return "\n".join(lines) + "\n"


def models_text(n: int, members: list[int]) -> str:
    rows = sorted("".join("1" if m >> i & 1 else "0" for i in range(n)) for m in members)
    return "\n".join([f"p models {n} {len(rows)}"] + rows) + "\n"


# ---------------------------------------------------------------------------
# Characteristic models of a planted block structure.
# ---------------------------------------------------------------------------


@dataclass
class BlockKB:
    theory: PlantedTheory      # the planted block theories, over all n variables
    members: list[int]         # characteristic models, as bits
    oracle: BlockOracle

    @property
    def n(self) -> int:
        return self.theory.n


def planted_blocks(rng: random.Random, bits: list[int], rules: int) -> BlockKB:
    """A KB whose models are the product of small Horn theories, one per
    entry of ``bits``.  The first block holds a K4 gadget, the others a
    triangle gadget each, and every block ``rules`` random definite clauses;
    every clause has MIN_TRUE true literals under a planted vector.  Only
    the first block has negative clauses, so only it has several maximal
    models and the member count stays in the hundreds.

    The members are the exact characteristic models of the product:
    combinations of maximal block models with at most one non-maximal
    meet-irreducible block model.  Random dense vectors would make nearly
    every query answer NO; these AND-span the planted structure, so queries
    cut from its clauses answer YES."""
    n = sum(bits)
    clauses: list[HornClause] = []
    gadgets: list[Query] = []
    oracle_blocks = []
    irr_parts, max_parts = [], []
    planted = 0
    offset = 0
    for b, width in enumerate(bits):
        need_off, need_on = (4, 1) if b == 0 else (3, 2)
        h = rng.getrandbits(width)
        while not need_off <= width - h.bit_count() <= width - need_on:
            h = rng.getrandbits(width)
        planted |= h << offset
        on = [i for i in range(1, width + 1) if h >> (i - 1) & 1]
        off = [i for i in range(1, width + 1) if not h >> (i - 1) & 1]
        (neg, pos), group = _gadget(rng, on, off, k4=b == 0)
        gadgets.append((tuple(i + offset for i in neg), tuple(i + offset for i in pos)))
        local: set[HornClause] = set(group)
        target = len(local) + rules
        while len(local) < target:
            c = _clause(rng, on, off, rng.randint(3, 4), True, MIN_TRUE)
            if c is not None:
                local.add(c)
        local_list = sorted(local)
        models = enumerate_models(width, local_list)
        member = np.zeros(1 << width, dtype=bool)
        member[models] = True
        oracle_blocks.append(Block(offset, width, member))
        irr = [int(x) for x in meet_irreducibles(models)]
        model_list = models.tolist()
        maximal = [x for x in irr if not any(y != x and y & x == x for y in model_list)]
        irr_parts.append([x << offset for x in irr if x not in maximal])
        max_parts.append([x << offset for x in maximal])
        clauses += [(head + offset if head else 0, tuple(i + offset for i in body))
                    for head, body in local_list]
        offset += width
    tops = [0]
    for part in max_parts:
        tops = [t | x for t in tops for x in part]
    members = set(tops)
    for b, part in enumerate(irr_parts):
        rest = [0]
        for other, mp in enumerate(max_parts):
            if other != b:
                rest = [r | x for r in rest for x in mp]
        members.update(x | r for x in part for r in rest)
    theory = PlantedTheory(n, planted, clauses, gadgets)
    return BlockKB(theory, sorted(members), BlockOracle(n, oracle_blocks))


# ---------------------------------------------------------------------------
# Small theories for the compile workload.
# ---------------------------------------------------------------------------


@dataclass
class SmallTheory:
    n: int
    clauses: list[HornClause]
    models: np.ndarray  # sorted model bits, by brute force


def small_theory(rng: random.Random, n: int, lo: int, hi: int, size: int) -> SmallTheory:
    """Planted-consistent theory over ``n`` <= 24 variables with a model
    count in [lo, hi] and exactly ``size`` clauses.

    Clauses satisfied by a hidden model are added while they keep the count
    at or above ``lo``; a theory that needs more than ``size`` clauses is
    drawn again, and one that needs fewer is padded with weakenings of its
    clauses (one extra body literal), which keep its models.  Enumeration
    cost grows with the clause count, so fixing it keeps the operations of
    one batch comparable across seeds."""
    for _ in range(1000):
        planted = rng.getrandbits(n)
        on = [i for i in range(1, n + 1) if planted >> (i - 1) & 1]
        off = [i for i in range(1, n + 1) if not planted >> (i - 1) & 1]
        arr = np.arange(1 << n, dtype=np.uint32)
        clauses: list[HornClause] = []
        while arr.size > hi and len(clauses) <= size:
            c = _clause(rng, on, off, rng.randint(2, 4), rng.random() < 0.8, 1)
            if c is None or c in clauses:
                continue
            head, body = c
            nm = np.uint32(sum(1 << (i - 1) for i in body))
            sat = (arr & nm) != nm
            if head:
                sat |= (arr >> np.uint32(head - 1) & np.uint32(1)).astype(bool)
            kept = arr[sat]
            if kept.size >= lo:
                clauses.append(c)
                arr = kept
        if len(clauses) > size:
            continue
        seen = set(clauses)
        while len(clauses) < size:
            head, body = rng.choice(clauses)
            extra = rng.randint(1, n)
            c = (head, tuple(sorted(body + (extra,))))
            if extra != head and extra not in body and c not in seen:
                seen.add(c)
                clauses.append(c)
        return SmallTheory(n, clauses, arr)
    raise RuntimeError(f"no theory with {lo}..{hi} models in {size} clauses at n={n}")


# ---------------------------------------------------------------------------
# Queries.
# ---------------------------------------------------------------------------


def _q(neg, pos) -> Query:
    return tuple(sorted(set(neg))), tuple(sorted(set(pos) - set(neg)))


def candidates(rng: random.Random, t: PlantedTheory, count: int) -> list[Query]:
    """Query clauses of 1-5 literals of seven kinds: random, a rule with an
    extra literal, three shapes cut from a gadget, falsified by the planted
    model, and subclauses of theory clauses (the interior routes' YES cases)."""
    n = t.n
    on = [i for i in range(1, n + 1) if t.planted >> (i - 1) & 1]
    off = [i for i in range(1, n + 1) if not t.planted >> (i - 1) & 1]
    definite = [c for c in t.clauses if c[0] and len(c[1]) <= 3]
    out: list[Query] = []
    while len(out) < count:
        kind = len(out) % 7
        if kind == 0:
            vs = rng.sample(range(1, n + 1), rng.randint(1, 5))
            k = rng.randint(0, min(2, len(vs)))
            q = _q(vs[k:], vs[:k])
        elif kind == 1:
            head, body = rng.choice(definite)
            extra = rng.randint(1, n)
            q = _q(body + (extra,), (head,)) if rng.random() < 0.5 else _q(body, (head, extra))
        elif kind in (2, 3, 4):
            neg, pos = rng.choice(t.gadgets)
            if kind == 2:
                q = _q(neg, pos)
            elif kind == 3:
                q = _q(rng.sample(neg, len(neg) - 1), pos + (rng.randint(1, n),))
            else:
                q = _q(rng.sample(neg, rng.randint(2, len(neg) - 1)), ())
        elif kind == 5:
            q = _q(rng.sample(on, rng.randint(1, 3)), rng.sample(off, rng.randint(0, 2)))
        else:
            head, body = rng.choice(t.clauses)
            lits = [-i for i in body] + ([head] if head else [])
            keep = rng.sample(lits, rng.randint(1, min(3, len(lits) - 1)))
            q = _q([-l for l in keep if l < 0], [l for l in keep if l > 0])
        if q[0] or q[1]:
            out.append(q)
    return out


def route_kind(route: str) -> str:
    """Oracle kind answered by a route: kb, interior, exterior or envelope."""
    if route in ("entails", "charset-entails"):
        return "kb"
    return route.split("-")[0]


@dataclass
class PlannedQuery:
    route: str
    alpha: int
    query: Query
    expected: bool


def plan_queries(rng: random.Random, oracle, candidates: list[Query],
                 slots: list[tuple[str, int, bool]], cycles: int,
                 accept=lambda route, q: True) -> list[PlannedQuery]:
    """Fill ``cycles`` copies of ``slots`` -- (route, alpha, wanted answer)
    -- with candidates whose reference answer is the wanted one, falling
    back to the other answer when no candidate has it.  The slot order is
    kept inside each cycle, so every prefix of the list carries the route
    mix of the whole."""
    truth: dict[tuple[str, int, Query], bool] = {}
    pools: dict[tuple[str, int, bool], list[Query]] = {}
    order = list(candidates)
    rng.shuffle(order)
    for route, alpha in dict.fromkeys((r, a) for r, a, _ in slots):
        kind = route_kind(route)
        for want in (True, False):
            pools.setdefault((route, alpha, want), [])
        for q in order:
            if not accept(route, q):
                continue
            key = (kind, alpha, q)
            if key not in truth:
                truth[key] = oracle.truth(kind, q, alpha)
            pools[(route, alpha, truth[key])].append(q)
    out = []
    used: dict[tuple[str, int, bool], int] = {}
    for _ in range(cycles):
        for route, alpha, want in slots:
            if not pools[(route, alpha, want)]:
                want = not want
            pool = pools[(route, alpha, want)]
            i = used.get((route, alpha, want), 0)
            used[(route, alpha, want)] = i + 1
            out.append(PlannedQuery(route, alpha, pool[i % len(pool)], want))
    return out
