"""``oracle.all_models`` against a brute force that shares no code with it:
a loop over every assignment with plain int bit tests, no numpy and no
``hornsafe`` evaluator."""

import random

import numpy as np
import pytest

from hornsafe import Clause, HornTheory, parse_horn_cnf, random_horn, serialize_horn_cnf
from hornsafe.oracle import all_models

SIZES = (1, 5, 6, 7, 12, 13)  # around the one-word and 64-assignment edges


def clause_masks(clauses: list[tuple[int, list[int]]]) -> list[tuple[int, int]]:
    """(body mask, head bit) per (head, body) clause; head 0 means no
    positive literal, indices are 1-based."""
    return [(sum(1 << (i - 1) for i in set(body)), 1 << (head - 1) if head else 0) for head, body in clauses]


def satisfies(a: int, masks: list[tuple[int, int]]) -> bool:
    """A clause fails exactly where its body is all true and its head false."""
    return all(a & body != body or a & head for body, head in masks)


def brute_models(n: int, clauses: list[tuple[int, list[int]]]) -> set[int]:
    masks = clause_masks(clauses)
    return {a for a in range(2 ** n) if satisfies(a, masks)}


def random_clauses(rng: random.Random, n: int) -> list[tuple[int, list[int]]]:
    """Up to 12 clauses mixing facts, rules and headless clauses."""
    clauses = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.15:  # a fact
            clauses.append((rng.randint(1, n), []))
            continue
        body = rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
        if kind < 0.55:  # headless
            clauses.append((0, body))
        elif len(body) > 1:  # a rule whose head is not in its body
            clauses.append((body[0], body[1:]))
        else:
            clauses.append((0, body))
    return clauses


def theory(n: int, clauses: list[tuple[int, list[int]]]) -> HornTheory:
    return HornTheory(n, tuple(Clause(pos={h} if h else set(), neg=set(b)) for h, b in clauses))


def check(n: int, clauses: list[tuple[int, list[int]]]) -> None:
    built = theory(n, clauses)
    parsed = parse_horn_cnf(serialize_horn_cnf(built))
    want = brute_models(n, clauses)
    got_built, got_parsed = all_models(built), all_models(parsed)
    assert got_built.n == got_parsed.n == n
    assert set(got_built.bits_array.tolist()) == want
    assert got_parsed == got_built
    assert "clauses" not in vars(parsed)


def test_random_theories_match_the_brute_force():
    rng = random.Random(12)
    cases = [(n, random_clauses(rng, n)) for n in SIZES for _ in range(40)]
    cases += [(n, random_clauses(rng, n)) for n in (rng.randint(1, 13) for _ in range(300))]
    assert len(cases) >= 500
    for n, clauses in cases:
        check(n, clauses)


@pytest.mark.parametrize("n", SIZES)
def test_empty_theory_is_the_whole_cube(n):
    check(n, [])
    assert len(all_models(HornTheory(n))) == 2 ** n


@pytest.mark.parametrize("n", SIZES)
def test_empty_clause_has_no_models(n):
    check(n, [(0, [])])
    check(n, [(1, []), (0, [])])
    assert len(all_models(theory(n, [(0, [])]))) == 0


@pytest.mark.parametrize("n", SIZES)
def test_facts_and_headless_clauses(n):
    check(n, [(n, [])])  # x_n true: half the cube
    check(n, [(0, [1])])  # x1 false
    check(n, [(1, []), (0, [n])] if n > 1 else [(1, [])])
    check(n, [(0, list(range(1, n + 1)))])  # all but the all-ones vector
    assert len(all_models(theory(n, [(n, [])]))) == 2 ** (n - 1)


def test_the_cap_itself_is_enumerated():
    t = random_horn(24, 6, 3, seed=1)
    masks = clause_masks([(max(c.pos, default=0), list(c.neg)) for c in t.clauses])
    ms = all_models(t)
    assert ms.n == 24 and len(ms) == 1_892_352
    member = np.zeros(2 ** 24, bool)  # a lookup table only; the check is satisfies
    member[ms.bits_array] = True
    rng = random.Random(24)
    for a in [rng.getrandbits(24) for _ in range(2000)] + [0, 2 ** 24 - 1]:
        assert member[a] == satisfies(a, masks)
    with pytest.raises(ValueError, match="capped at n=24, got 25"):
        all_models(HornTheory(25))
