"""Shared fixtures: the worked examples used across the suite, and the
seeded instance sampler the fuzz/oracle-equivalence tests draw from."""

from __future__ import annotations

import random

import pytest

from hornsafe import (
    Clause,
    HornTheory,
    Model,
    ModelSet,
    characteristic_set,
    deduce_envelope_formula,
    deduce_exterior_formula,
    deduce_interior_formula,
    entails,
    eval_clause,
    parse_horn_cnf,
    parse_model_set,
    random_horn,
)
from hornsafe.oracle import all_models

EX2_TEXT = """c running example: x1 -> x3, x2 -> x3, x2 -> x4
p hcnf 4 3
-1 3 0
-2 3 0
-2 4 0
"""

M1_TEXT = """p models 4 3
0101
1001
1000
"""

M2_TEXT = """p models 4 5
0101
1001
1000
0001
0000
"""

EX2_MODELS = ["0000", "0001", "0010", "0011", "0111", "1010", "1011", "1111"]
EX2_CHARSET = ["0001", "0111", "1010", "1011", "1111"]


@pytest.fixture(scope="session")
def ex2() -> HornTheory:
    return parse_horn_cnf(EX2_TEXT)


@pytest.fixture(scope="session")
def ex2_charset(ex2) -> ModelSet:
    return characteristic_set(all_models(ex2))


@pytest.fixture(scope="session")
def m1() -> ModelSet:
    return parse_model_set(M1_TEXT)


@pytest.fixture(scope="session")
def m2() -> ModelSet:
    return parse_model_set(M2_TEXT)


def random_query_clause(n: int, rng: random.Random) -> Clause:
    """Query clauses of every shape: empty, purely positive, purely negative,
    mixed; not restricted to Horn."""
    style = rng.random()
    if style < 0.08:
        return Clause()
    length = rng.randint(1, min(4, n))
    variables = rng.sample(range(1, n + 1), length)
    if style < 0.25:
        return Clause(pos=frozenset(variables))
    if style < 0.45:
        return Clause(neg=frozenset(variables))
    pos = frozenset(v for v in variables if rng.random() < 0.5)
    return Clause(pos=pos, neg=frozenset(variables) - pos)


def random_instance(
    rng: random.Random,
    max_n: int = 10,
    force_inconsistent: bool = False,
    neg_only: bool = False,
) -> tuple[HornTheory, Clause, int]:
    """One (theory, query, alpha) sample at oracle-checkable scale."""
    n = rng.randint(2, max_n)
    m = rng.randint(0, 15)
    theory = random_horn(
        n, m, rng.randint(1, min(4, n)),
        neg_only=neg_only and not force_inconsistent,
        seed=rng.getrandbits(48),
    )
    if force_inconsistent:
        if rng.random() < 0.5 or n < 3:
            j = rng.randint(1, n)
            extra = (Clause(pos={j}), Clause(neg={j}))
        else:
            extra = (
                Clause(pos={1}),
                Clause(pos={2}, neg={1}),
                Clause(pos={3}, neg={2}),
                Clause(neg={3}),
            )
        theory = HornTheory(n, theory.clauses + extra)
    clause = random_query_clause(n, rng)
    alpha = rng.choice([0, 0, 1, 1, 1, 2, 2, 3, rng.randint(0, n), n])
    return theory, clause, alpha


#: The four formula routes as ``route(theory, clause, alpha) -> Decision``.
FORMULA_ROUTES = (
    lambda t, c, alpha: entails(t, c),
    deduce_interior_formula,
    deduce_exterior_formula,
    deduce_envelope_formula,
)


def planted_horn(n: int, m: int, max_len: int, seed: int) -> HornTheory:
    """A consistent random Horn theory: the clauses of ``random_horn`` that a
    random planted model satisfies."""
    rng = random.Random(seed)
    planted = Model(n, rng.getrandbits(n))
    t = random_horn(n, m, max_len, seed=rng.getrandbits(48))
    return HornTheory(n, tuple(c for c in t.clauses if eval_clause(c, planted)))


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="also run the tests marked slow (exhaustive n = 4)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
