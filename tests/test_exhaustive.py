"""Exhaustive small-scope check: every route against every instance at n = 3.

An instance is an AND-closed model set M over three variables (the empty
set included), one of the 27 clauses over them (each variable positive,
negative or absent) and an alpha from 0 to 3: 122 x 27 x 4 = 13,176
instances.  The test derives everything it compares against from M itself,
by enumeration over the eight vectors: the Horn CNF of M (every Horn clause
M satisfies), its characteristic models, and the interior, exterior and
envelope model sets.  Nothing here goes through ``engine`` or ``oracle``,
so the optimised code is never checked against itself.

Each formula route answers on two theories with equal clauses: one built
from the clause list and one parsed back from its text, so both sources of
the flat arrays the propagation index is built from are exercised.

The interior-charset trace is checked against the scan's rule too: each
trace vector is the first non-model, in flip order, of the alpha-ball of
its restart's v*, replayed from the same enumeration.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

from hornsafe import (
    Clause,
    HornTheory,
    Model,
    ModelSet,
    charset_entails,
    deduce_envelope_charset,
    deduce_envelope_formula,
    deduce_exterior_charset,
    deduce_exterior_formula,
    deduce_interior_charset,
    deduce_interior_formula,
    entails,
    parse_horn_cnf,
    serialize_horn_cnf,
)

N = 3
CUBE = range(1 << N)
FULL = (1 << N) - 1


def _and_closed_sets() -> list[frozenset[int]]:
    """Every subset of the cube closed under AND of two members."""
    out = []
    for pick in range(1 << len(CUBE)):
        members = frozenset(v for v in CUBE if pick >> v & 1)
        if all(a & b in members for a in members for b in members):
            out.append(members)
    return out


def _clauses() -> list[Clause]:
    out = []
    for signs in product((0, 1, -1), repeat=N):
        out.append(Clause(pos={i + 1 for i, s in enumerate(signs) if s == 1},
                          neg={i + 1 for i, s in enumerate(signs) if s == -1}))
    return out


def _satisfies(v: int, c: Clause) -> bool:
    return any(v >> (i - 1) & 1 for i in c.pos) or any(not v >> (i - 1) & 1 for i in c.neg)


def _horn_cnf(members: frozenset[int]) -> HornTheory:
    """Every Horn clause that all of ``members`` satisfy (the empty one too
    when there are none)."""
    horn = [c for c in _clauses() if len(c.pos) <= 1]
    return HornTheory(N, tuple(c for c in horn if all(_satisfies(v, c) for v in members)))


def _characteristic(members: frozenset[int]) -> frozenset[int]:
    """The members that are not the AND of the other members above them."""
    keep = set()
    for m in members:
        above = [x for x in members if x != m and x & m == m]
        if not above or reduce(lambda a, b: a & b, above) != m:
            keep.add(m)
    return frozenset(keep)


def _ball(v: int, alpha: int) -> list[int]:
    return [u for u in CUBE if (u ^ v).bit_count() <= alpha]


def _targets(members: frozenset[int], alpha: int) -> dict[str, frozenset[int]]:
    interior = frozenset(v for v in CUBE if all(u in members for u in _ball(v, alpha)))
    exterior = frozenset(v for v in CUBE if any(u in members for u in _ball(v, alpha)))
    envelope = set(exterior)
    while True:
        grown = envelope | {a & b for a in envelope for b in envelope}
        if grown == envelope:
            break
        envelope = grown
    return {"base": members, "interior": interior, "exterior": exterior,
            "envelope": frozenset(envelope)}


def _mismatch(decision, c: Clause, target: frozenset[int]) -> str | None:
    expected = all(_satisfies(v, c) for v in target)
    if decision.entailed != expected:
        return "answer"
    w = decision.witness
    if w is not None and (decision.entailed or _satisfies(w.bits, c) or w.bits not in target):
        return "witness"
    return None


def test_every_route_on_every_instance_at_n3():
    sets = _and_closed_sets()
    clauses = _clauses()
    assert len(sets) == 122 and len(clauses) == 27
    instances = 0
    bad = []
    for members in sets:
        built = _horn_cnf(members)
        parsed = parse_horn_cnf(serialize_horn_cnf(built))
        assert parsed == built
        charset = ModelSet.from_bits(N, _characteristic(members))
        for alpha in range(N + 1):
            target = _targets(members, alpha)
            for c in clauses:
                instances += 1
                runs = [("charset_entails", charset_entails(charset, c), "base"),
                        ("interior-charset", deduce_interior_charset(charset, c, alpha), "interior"),
                        ("envelope-charset", deduce_envelope_charset(charset, c, alpha), "envelope")]
                runs += [(f"exterior-charset-{method}",
                          deduce_exterior_charset(charset, c, alpha, method=method), "exterior")
                         for method in ("neg", "pos", "auto")]
                for source, t in (("built", built), ("parsed", parsed)):
                    runs += [(f"entails-{source}", entails(t, c), "base"),
                             (f"interior-formula-{source}", deduce_interior_formula(t, c, alpha), "interior"),
                             (f"exterior-formula-{source}", deduce_exterior_formula(t, c, alpha), "exterior"),
                             (f"envelope-formula-{source}", deduce_envelope_formula(t, c, alpha), "envelope")]
                for route, decision, kind in runs:
                    why = _mismatch(decision, c, target[kind])
                    if why:
                        bad.append((sorted(members), str(c), alpha, route, why))
    assert instances == 13_176
    assert bad == [], bad[:10]


def test_the_derived_cnf_has_exactly_the_set_as_models():
    # The instances rest on this: a set is AND-closed iff it is the model
    # set of its Horn CNF.
    for members in _and_closed_sets():
        t = _horn_cnf(members)
        models = {v for v in CUBE if t.satisfied_by(Model(N, v))}
        assert models == set(members)
    assert _characteristic(frozenset(CUBE)) == {FULL} | {FULL ^ (1 << i) for i in range(N)}


def _flip_order() -> list[int]:
    """Every flip mask by ascending size, then lexicographically by its
    sorted index tuple."""
    return sorted(CUBE, key=lambda f: (f.bit_count(), [i for i in range(N) if f >> i & 1]))


def test_interior_charset_trace_is_the_first_non_model_of_each_ball():
    # Replays the scan's restarts: v* starts as N(c), and after each trace
    # vector v it gains J, the bits the minimal model above v adds (all bits
    # when no model is above v).  Every trace vector must be the first
    # non-model of the alpha-ball of that restart's v*, in flip order.
    order = _flip_order()
    vectors = 0
    for members in _and_closed_sets():
        charset = ModelSet.from_bits(N, _characteristic(members))
        for alpha in range(N + 1):
            ball = [f for f in order if f.bit_count() <= alpha]
            for c in _clauses():
                d = deduce_interior_charset(charset, c, alpha)
                vstar = sum(1 << (i - 1) for i in c.neg)
                for v in d.trace:
                    assert v.bits not in members
                    assert (v.bits ^ vstar).bit_count() <= alpha
                    assert v.bits == next(vstar ^ f for f in ball if vstar ^ f not in members)
                    above = [u for u in members if u & v.bits == v.bits]
                    vstar |= reduce(lambda a, b: a & b, above) & ~v.bits if above else FULL
                    vectors += 1
                if not d.entailed:
                    assert d.witness.bits == vstar
                    assert all(vstar ^ f in members for f in ball)
    assert vectors == 13_682
