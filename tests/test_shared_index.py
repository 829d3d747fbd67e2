"""The propagation index a Horn theory shares across the formula routes:
built once per theory, never keeping the theory alive, and answering
exactly as an index built afresh for each query would."""

import gc
import random
import weakref

import pytest

import hornsafe.engine
from hornsafe import HornPropagator, minimal_model, parse_horn_cnf, serialize_horn_cnf
from conftest import FORMULA_ROUTES, planted_horn, random_query_clause


def _mixed_queries(n: int, count: int, seed: int):
    """(route, clause, alpha) triples cycling through the four routes."""
    rng = random.Random(seed)
    return [(FORMULA_ROUTES[i % 4], random_query_clause(n, rng), rng.randint(0, 3))
            for i in range(count)]


def _answer(d):
    return d.entailed, d.witness, d.trace


@pytest.fixture
def build_count(monkeypatch):
    builds = []

    class Counting(HornPropagator):
        def __init__(self, theory):
            builds.append(theory.n)
            super().__init__(theory)

    monkeypatch.setattr(hornsafe.engine, "HornPropagator", Counting)
    return builds


def test_one_index_per_theory(build_count):
    t = planted_horn(14, 40, 4, seed=5)
    for route, clause, alpha in _mixed_queries(14, 80, seed=6):
        route(t, clause, alpha)
    minimal_model(t)
    assert len(build_count) == 1


def test_each_theory_builds_its_own_index(build_count):
    text = serialize_horn_cnf(planted_horn(10, 30, 3, seed=8))
    first, second = parse_horn_cnf(text), parse_horn_cnf(text)
    assert first == second
    for route, clause, alpha in _mixed_queries(10, 8, seed=9):
        assert _answer(route(first, clause, alpha)) == _answer(route(second, clause, alpha))
    assert len(build_count) == 2


def test_theory_freed_by_reference_counting():
    t = planted_horn(12, 30, 4, seed=11)
    for route, clause, alpha in _mixed_queries(12, 8, seed=12):
        route(t, clause, alpha)
    ref = weakref.ref(t)
    was_enabled = gc.isenabled()
    gc.disable()  # only reference counting may free it: no cycle collection
    try:
        del t
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_shared_index_matches_fresh_parses(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    text = serialize_horn_cnf(planted_horn(n, 4 * n, 4, seed=rng.getrandbits(32)))
    shared = parse_horn_cnf(text)
    queries = _mixed_queries(n, 120, seed=rng.getrandbits(32))
    got = [_answer(route(shared, c, a)) for route, c, a in queries]
    fresh = [_answer(route(parse_horn_cnf(text), c, a)) for route, c, a in queries]
    assert got == fresh
    # Not vacuous: both answers occur, and some interior query grew N.
    assert {entailed for entailed, _, _ in got} == {True, False}
    assert any(trace for _, _, trace in got[1::4])
