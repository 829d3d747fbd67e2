"""The single-bit-cover filter of characteristic extraction and the clause
order of ``all_models``: extraction against the definition in the flag and
the ``np.isin`` branch, a spy on ``engine._meet_rows`` that sees only
members with at most one single-bit cover (every member without a flag
table), the block-equivalence family whose members have none, and
enumeration under permuted clauses against a brute force."""

import random
import sys
from functools import reduce

import pytest

from hornsafe import Clause, HornTheory, ModelSet, characteristic_set, core, engine, oracle


def ref_characteristic(members: set[int]) -> set[int]:
    """Members that are not the AND of the strictly greater members."""
    keep = set()
    for m in members:
        above = [x for x in members if x & m == m and x != m]
        if not above or reduce(lambda a, b: a & b, above) != m:
            keep.add(m)
    return keep


def covers(m: int, members: set[int], n: int) -> int:
    return sum(m | 1 << i in members for i in range(n) if not m >> i & 1)


def random_sets(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield ModelSet.from_bits(n, rng.sample(range(1 << n), rng.randint(1, min(1 << n, 70))))


@pytest.mark.parametrize("branch", ["flags", "isin"])
def test_extraction_matches_the_definition_in_both_branches(monkeypatch, branch):
    tables = []
    flags = core._member_flags
    monkeypatch.setattr(engine, "_member_flags", lambda arr, n: tables.append(n) or flags(arr, n))
    if branch == "isin":
        monkeypatch.setattr(engine, "CLOSURE_CAP", 0)  # no table for any cube
    closed_seen = {True: 0, False: 0}
    for ms in random_sets(1 if branch == "flags" else 2, 250):
        del tables[:]
        gens, closed = engine._characteristic(ms)
        assert tables == ([ms.n] if branch == "flags" else [])
        assert set(gens.tolist()) == ref_characteristic(ms.bits_set)
        assert gens.size == len(set(gens.tolist()))
        closed_seen[closed] += 1
    assert closed_seen[False] > 150 and closed_seen[True] > 10


def spy_meet_rows(monkeypatch):
    """Patch ``engine._meet_rows`` to record, per call, the rows it meets
    (the caller's ``m``) and the shape of its hit matrix."""
    calls = []
    meet = engine._meet_rows

    def spy(members, hit):
        calls.append((sys._getframe(1).f_locals["m"].tolist(), hit.shape))
        return meet(members, hit)

    monkeypatch.setattr(engine, "_meet_rows", spy)
    return calls


@pytest.mark.parametrize("branch", ["flags", "isin"])
def test_no_member_with_two_covers_reaches_the_meet(monkeypatch, branch):
    # Without a flag table nothing is filtered: every member is met.
    calls = spy_meet_rows(monkeypatch)
    if branch == "isin":
        monkeypatch.setattr(engine, "CLOSURE_CAP", 0)
    filtered = 0
    for ms in random_sets(3, 200):
        members = ms.bits_set
        del calls[:]
        engine._characteristic(ms)
        met = [m for rows, _ in calls for m in rows]
        assert sorted(met) == sorted(m for m in members if branch == "isin" or covers(m, members, ms.n) <= 1)
        filtered += len(members) - len(met)
    assert filtered > 1000 if branch == "flags" else not filtered


def block_theory(k: int) -> HornTheory:
    """x(2i-1) <-> x(2i) for i = 1..k: each pair of variables on or off
    together, 2^k models, none with a single-bit cover."""
    return HornTheory(2 * k, tuple(c for i in range(1, k + 1)
                                   for c in (Clause(pos={2 * i}, neg={2 * i - 1}),
                                             Clause(pos={2 * i - 1}, neg={2 * i}))))


@pytest.mark.parametrize("k", range(6, 11))
def test_block_family_keeps_the_coatoms_and_the_top(monkeypatch, k):
    calls = spy_meet_rows(monkeypatch)
    ms = oracle.all_models(block_theory(k))
    top = (1 << 2 * k) - 1
    kept = characteristic_set(ms)
    assert len(ms) == 1 << k
    assert kept.bits_set == {top} | {top & ~(3 << 2 * i) for i in range(k)}
    assert sum(len(rows) for rows, _ in calls) == len(ms)  # the filter drops nothing here
    assert sum(rows * gens for _, (rows, gens) in calls) <= len(ms) * len(kept)


def brute(n: int, clauses: list[tuple[int, list[int]]]) -> set[int]:
    masks = [(sum(1 << (i - 1) for i in body), 1 << (h - 1) if h else 0) for h, body in clauses]
    return {a for a in range(1 << n) if all(a & b != b or a & h for b, h in masks)}


def test_all_models_does_not_depend_on_the_clause_order():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(0, 40)):
            body = rng.sample(range(1, n + 1), rng.randint(0, min(n, 5)))
            clauses.append((rng.choice([0] + [i for i in range(1, n + 1) if i not in body]), body))
        want = brute(n, clauses)
        for _ in range(3):
            rng.shuffle(clauses)
            t = HornTheory(n, tuple(Clause(pos={h} if h else set(), neg=set(b)) for h, b in clauses))
            assert oracle.all_models(t).bits_set == want
