"""Exhaustive small-scope check: every route against every instance at n = 3,
and at n = 4 behind the ``slow`` marker (``pytest --run-slow``).

An instance is an AND-closed model set M over n variables (the empty set
included), one of the 3^n clauses over them (each variable positive,
negative or absent) and an alpha from 0 to n: 122 x 27 x 4 = 13,176
instances at n = 3 and 4,960 x 81 x 5 = 2,008,800 at n = 4.  The test
derives everything it compares against from M itself, by enumeration over
the 2^n vectors: the Horn CNF of M (every Horn clause M satisfies), its
characteristic models, and the interior, exterior and envelope model sets.  Nothing here goes through ``engine`` or ``oracle``,
so the optimised code is never checked against itself, with one deliberate
exception: ``entails`` and the alpha = 0 exterior and envelope routes, which
all answer from the alpha = 0 interior base, are also compared with the
decision built from ``minimal_model``, the other way into their one shared
propagation loop (every route is checked against enumeration too).

Each formula route answers on two theories with equal clauses: one built
from the clause list and one parsed back from its text, so both sources of
the flat arrays the propagation index is built from are exercised, and
each interior-formula trace must be a derivation under the alpha-rule.

The interior-charset trace is checked against the scan's rule too: each
restart records v* when it is not a model, and otherwise the non-models,
in flip order, of the first block of ball vectors that holds one, cut at
the first that answers YES; the whole trace is replayed from the same
enumeration.  Once more with one-row chunks, which are also one-vector
blocks: each restart then records only the first non-model of its ball,
and every ball vector but v* and the first flip goes through the witness
stage of the scan.  Answers and witnesses must not depend on the block.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product

import pytest

import hornsafe.interior
from hornsafe import (
    Clause,
    Decision,
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
    minimal_model,
    parse_horn_cnf,
    serialize_horn_cnf,
)


@cache
def _and_closed_sets(n: int) -> list[frozenset[int]]:
    """Every subset of the n-cube closed under AND of two members."""
    out = []
    for pick in range(1 << (1 << n)):
        members = frozenset(v for v in range(1 << n) if pick >> v & 1)
        if all(a & b in members for a in members for b in members):
            out.append(members)
    return out


@cache
def _clauses(n: int) -> list[Clause]:
    out = []
    for signs in product((0, 1, -1), repeat=n):
        out.append(Clause(pos={i + 1 for i, s in enumerate(signs) if s == 1},
                          neg={i + 1 for i, s in enumerate(signs) if s == -1}))
    return out


def _satisfies(v: int, c: Clause) -> bool:
    return any(v >> (i - 1) & 1 for i in c.pos) or any(not v >> (i - 1) & 1 for i in c.neg)


def _horn_cnf(n: int, members: frozenset[int]) -> HornTheory:
    """Every Horn clause that all of ``members`` satisfy (the empty one too
    when there are none)."""
    horn = [c for c in _clauses(n) if len(c.pos) <= 1]
    return HornTheory(n, tuple(c for c in horn if all(_satisfies(v, c) for v in members)))


def _characteristic(members: frozenset[int]) -> frozenset[int]:
    """The members that are not the AND of the other members above them."""
    keep = set()
    for m in members:
        above = [x for x in members if x != m and x & m == m]
        if not above or reduce(lambda a, b: a & b, above) != m:
            keep.add(m)
    return frozenset(keep)


def _ball(n: int, v: int, alpha: int) -> list[int]:
    return [u for u in range(1 << n) if (u ^ v).bit_count() <= alpha]


def _targets(n: int, members: frozenset[int], alpha: int) -> dict[str, frozenset[int]]:
    cube = range(1 << n)
    interior = frozenset(v for v in cube if all(u in members for u in _ball(n, v, alpha)))
    exterior = frozenset(v for v in cube if any(u in members for u in _ball(n, v, alpha)))
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


def _bad_formula_trace(bodies: dict[int, list], c: Clause, alpha: int, decision) -> str | None:
    """The rule of ``tests/test_interior_base.py::_check_trace``: no variable
    repeats or lies in N(c), each has a body within alpha of what is known
    before it, and on NO the trace is the witness's true variables outside
    N(c)."""
    trace = decision.trace
    if len(set(trace)) != len(trace) or set(trace) & c.neg:
        return "trace repeats or meets N(c)"
    known = set(c.neg)
    for j in trace:
        if not any(len(body - known) <= alpha for body in bodies.get(j, ())):
            return f"trace variable {j} has no body within alpha"
        known.add(j)
    if not decision.entailed and set(trace) != decision.witness.on_set() - c.neg:
        return "NO trace is not the witness"
    return None


def _check_every_route(n: int) -> int:
    """Run every route on every instance at ``n``; the instance count."""
    instances = 0
    bad = []
    for members in _and_closed_sets(n):
        built = _horn_cnf(n, members)
        parsed = parse_horn_cnf(serialize_horn_cnf(built))
        assert parsed == built
        bodies: dict[int, list] = {}
        for d in built.clauses:
            for j in d.pos:
                bodies.setdefault(j, []).append(d.neg)
        charset = ModelSet.from_bits(n, _characteristic(members))
        for alpha in range(n + 1):
            target = _targets(n, members, alpha)
            for c in _clauses(n):
                instances += 1
                runs = [("charset_entails", charset_entails(charset, c), "base"),
                        ("interior-charset", deduce_interior_charset(charset, c, alpha), "interior"),
                        ("envelope-charset", deduce_envelope_charset(charset, c, alpha), "envelope")]
                runs += [(f"exterior-charset-{method}",
                          deduce_exterior_charset(charset, c, alpha, method=method), "exterior")
                         for method in ("neg", "pos", "auto")]
                for source, t in (("built", built), ("parsed", parsed)):
                    interior = deduce_interior_formula(t, c, alpha)
                    why = _bad_formula_trace(bodies, c, alpha, interior)
                    if why:
                        bad.append((sorted(members), str(c), alpha, f"interior-formula-{source}", why))
                    runs += [(f"entails-{source}", entails(t, c), "base"),
                             (f"interior-formula-{source}", interior, "interior"),
                             (f"exterior-formula-{source}", deduce_exterior_formula(t, c, alpha), "exterior"),
                             (f"envelope-formula-{source}", deduce_envelope_formula(t, c, alpha), "envelope")]
                for route, decision, kind in runs:
                    why = _mismatch(decision, c, target[kind])
                    if why:
                        bad.append((sorted(members), str(c), alpha, route, why))
    assert bad == [], bad[:10]
    return instances


def test_every_route_on_every_instance_at_n3():
    assert len(_and_closed_sets(3)) == 122 and len(_clauses(3)) == 27
    assert _check_every_route(3) == 13_176


@pytest.mark.slow
def test_every_route_on_every_instance_at_n4():
    assert len(_and_closed_sets(4)) == 4_960 and len(_clauses(4)) == 81
    _check_derived_cnf(4)
    assert _check_every_route(4) == 2_008_800


def _check_derived_cnf(n: int) -> None:
    # The instances rest on this: a set is AND-closed iff it is the model
    # set of its Horn CNF.
    for members in _and_closed_sets(n):
        t = _horn_cnf(n, members)
        models = {v for v in range(1 << n) if t.satisfied_by(Model(n, v))}
        assert models == set(members)
    full = (1 << n) - 1
    assert _characteristic(frozenset(range(1 << n))) == {full} | {full ^ (1 << i) for i in range(n)}


def test_the_derived_cnf_has_exactly_the_set_as_models():
    _check_derived_cnf(3)


def _flip_order(n: int) -> list[int]:
    """Every flip mask by ascending size, then lexicographically by its
    sorted index tuple."""
    return sorted(range(1 << n), key=lambda f: (f.bit_count(), [i for i in range(n) if f >> i & 1]))


def _replay_interior_charset(n: int, block: int | None = None) -> int:
    """Replays the scan's restarts and compares the whole trace.  v* starts
    as N(c).  A restart whose v* is not a model records v* alone; otherwise
    it records the non-models, in flip order, of the first block of
    ``block`` ball vectors past v* that holds one (the scan's ``_ROWS`` at
    call time when None).  Each recorded v has J, the bits the minimal
    model above v adds (all bits when no model is above v).  The first J
    meeting the restart's v* or P(c) ends the trace with YES; otherwise v*
    gains the union of the restart's J's.  NO leaves v* as the witness,
    with its whole ball models.  Returns the number of trace vectors."""
    block = hornsafe.interior._ROWS if block is None else block
    order = _flip_order(n)
    full = (1 << n) - 1
    vectors = 0
    for members in _and_closed_sets(n):
        charset = ModelSet.from_bits(n, _characteristic(members))
        for alpha in range(n + 1):
            ball = [f for f in order if f.bit_count() <= alpha]
            for c in _clauses(n):
                d = deduce_interior_charset(charset, c, alpha)
                vstar = sum(1 << (i - 1) for i in c.neg)
                pos = sum(1 << (i - 1) for i in c.pos)
                trace, yes = [], not members  # no members: YES, no trace
                while not yes:
                    bad = [k for k, f in enumerate(ball) if vstar ^ f not in members]
                    if not bad:
                        break
                    if bad[0] == 0:
                        bad = [0]
                    else:
                        bad = [k for k in bad if (k - 1) // block == (bad[0] - 1) // block]
                    grown = vstar
                    for k in bad:
                        v = vstar ^ ball[k]
                        trace.append(v)
                        above = [u for u in members if u & v == v]
                        j = reduce(lambda a, b: a & b, above) & ~v if above else full
                        if j & (vstar | pos):
                            yes = True
                            break
                        grown |= j
                    vstar = grown
                assert [v.bits for v in d.trace] == trace, (sorted(members), str(c), alpha)
                assert d.entailed == yes
                if not yes:
                    assert d.witness.bits == vstar
                vectors += len(trace)
    return vectors


def test_interior_charset_trace_is_the_first_non_model_of_each_ball():
    assert _replay_interior_charset(3) == 14_351


def test_interior_charset_trace_with_one_row_chunks(monkeypatch):
    # At n = 3 every ball fits in one chunk; one-row chunks send every ball
    # vector but v* and the first flip through the witness stage.
    monkeypatch.setattr("hornsafe.interior._ROWS", 1)
    assert _replay_interior_charset(3) == 13_682


@pytest.mark.slow
def test_interior_charset_trace_is_the_first_non_model_of_each_ball_at_n4():
    assert _replay_interior_charset(4) == 2_549_907


def test_interior_charset_answers_do_not_depend_on_the_block(monkeypatch):
    # The block decides how much of the trace a restart records; the
    # answer and the witness, the least interior model falsifying c, are
    # those of the one-vector block on the whole n = 3 scope.
    n = 3
    runs = []
    for rows in (hornsafe.interior._ROWS, 1):
        monkeypatch.setattr("hornsafe.interior._ROWS", rows)
        runs.append([(d.entailed, d.witness)
                     for members in _and_closed_sets(n)
                     for charset in [ModelSet.from_bits(n, _characteristic(members))]
                     for alpha in range(n + 1)
                     for c in _clauses(n)
                     for d in [deduce_interior_charset(charset, c, alpha)]])
    assert len(runs[0]) == 13_176 and runs[0] == runs[1]


def test_minimal_model_and_the_alpha_0_interior_on_every_theory_at_n3():
    # Unit propagation is the alpha-rule loop at alpha = 0: minimal_model
    # under every pair of pin sets, overlapping ones included, must be the
    # least member containing the true pins, or None when there is none or
    # it meets the false pins; and the alpha = 0 interior route must give
    # entails' answer and witness on every clause.
    n = 3
    pins = [frozenset(i + 1 for i in range(n) if s >> i & 1) for s in range(1 << n)]
    bad = []
    for members in _and_closed_sets(n):
        built = _horn_cnf(n, members)
        for source, t in (("built", built), ("parsed", parse_horn_cnf(serialize_horn_cnf(built)))):
            for true in pins:
                tm = sum(1 << (i - 1) for i in true)
                above = [v for v in members if v & tm == tm]
                least = reduce(lambda a, b: a & b, above) if above else None
                for false in pins:
                    fm = sum(1 << (i - 1) for i in false)
                    want = None if least is None or least & fm else Model(n, least)
                    if minimal_model(t, true, false) != want:
                        bad.append((sorted(members), source, sorted(true), sorted(false)))
            for c in _clauses(n):
                got, want = deduce_interior_formula(t, c, 0), entails(t, c)
                if (got.entailed, got.witness) != (want.entailed, want.witness):
                    bad.append((sorted(members), source, str(c)))
    assert bad == [], bad[:10]


def test_entailment_and_the_alpha_0_routes_match_minimal_model_at_n3():
    # At alpha = 0 exterior and envelope are the theory itself: entails and
    # both routes answer from the alpha = 0 interior base, and each must
    # equal the whole decision unit propagation gives, YES when no model
    # contains N(c) and misses P(c), else NO with the least such model.
    n = 3
    bad = []
    checked = 0
    for members in _and_closed_sets(n):
        built = _horn_cnf(n, members)
        for source, t in (("built", built), ("parsed", parse_horn_cnf(serialize_horn_cnf(built)))):
            for c in _clauses(n):
                m = minimal_model(t, c.neg, c.pos)
                want = Decision(True) if m is None else Decision(False, witness=m)
                for route, got in (("entails", entails(t, c)),
                                   ("exterior", deduce_exterior_formula(t, c, 0)),
                                   ("envelope", deduce_envelope_formula(t, c, 0))):
                    checked += 1
                    if got != want:
                        bad.append((sorted(members), source, str(c), route))
    assert checked == 122 * 2 * 27 * 3
    assert bad == [], bad[:10]
