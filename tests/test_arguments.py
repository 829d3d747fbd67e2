"""Public argument errors: alpha at every entry that takes one, dimension
and index checks, a malformed header, and the frozen ModelSet."""

import random
from dataclasses import FrozenInstanceError
from functools import partial

import numpy as np
import pytest

from hornsafe import (
    Clause,
    Model,
    ModelSet,
    ParseError,
    characteristic_set,
    clause_interior,
    deduce_envelope_charset,
    deduce_envelope_formula,
    deduce_exterior_charset,
    deduce_exterior_formula,
    deduce_interior_charset,
    deduce_interior_formula,
    exterior_models,
    interior_cnf,
    interior_models,
    min_model_above,
    minimal_model,
    neighborhood,
    parse_horn_cnf,
)
from hornsafe.core import iter_flip_masks
from hornsafe.oracle import all_models
from conftest import planted_horn, random_query_clause

#: The seven deduce_* routes, exterior-charset once per method, as
#: ``(name, route(theory, charset, clause, alpha))``.
ROUTES = [
    ("interior-formula", lambda t, cs, c, a: deduce_interior_formula(t, c, a)),
    ("exterior-formula", lambda t, cs, c, a: deduce_exterior_formula(t, c, a)),
    ("envelope-formula", lambda t, cs, c, a: deduce_envelope_formula(t, c, a)),
    ("interior-charset", lambda t, cs, c, a: deduce_interior_charset(cs, c, a)),
    *((f"exterior-charset-{m}", lambda t, cs, c, a, m=m: deduce_exterior_charset(cs, c, a, method=m))
      for m in ("neg", "pos", "auto")),
    ("envelope-charset", lambda t, cs, c, a: deduce_envelope_charset(cs, c, a)),
]

#: Each bad alpha with the error it raises.
BAD_ALPHAS = [(-1, ValueError), (1.5, TypeError), (2.0, TypeError)]
#: Messages: the one alpha check's, and operator.index's.
MESSAGES = {ValueError: "alpha must be nonnegative", TypeError: "cannot be interpreted as an integer"}

#: One clause longer than every bad alpha, and two no longer than 1.5.
CLAUSES = [Clause(pos={1}, neg={2, 3}), Clause(neg={2}), Clause(pos={1})]


@pytest.fixture(scope="module")
def kb():
    t = planted_horn(5, 8, 3, seed=11)
    return t, characteristic_set(all_models(t))


@pytest.mark.parametrize("name, route", ROUTES, ids=[r[0] for r in ROUTES])
@pytest.mark.parametrize("c", CLAUSES, ids=["long", "short-neg", "short-pos"])
@pytest.mark.parametrize("alpha, error", BAD_ALPHAS)
def test_routes_reject_bad_alpha(kb, name, route, c, alpha, error):
    t, cs = kb
    with pytest.raises(error, match=MESSAGES[error]):
        route(t, cs, c, alpha)


@pytest.mark.parametrize("call", [
    partial(clause_interior, Clause(pos={1}, neg={2, 3})),
    lambda alpha: interior_cnf(planted_horn(5, 8, 3, seed=11), alpha),
    partial(neighborhood, Model(4, 5)),
    lambda alpha: interior_models(ModelSet.from_bits(3, [1, 3, 7]), alpha),
    lambda alpha: exterior_models(ModelSet.from_bits(3, [1, 3, 7]), alpha),
], ids=["clause_interior", "interior_cnf", "neighborhood", "interior_models", "exterior_models"])
@pytest.mark.parametrize("alpha, error", BAD_ALPHAS)
def test_other_entries_reject_bad_alpha(call, alpha, error):
    with pytest.raises(error, match=MESSAGES[error]):
        call(alpha)


@pytest.mark.parametrize("name, route", ROUTES, ids=[r[0] for r in ROUTES])
def test_numpy_integer_alpha_decides_as_int(name, route):
    rng = random.Random(name)
    for seed in range(6):
        t = planted_horn(6, 10, 3, seed=seed)
        cs = characteristic_set(all_models(t))
        for _ in range(8):
            c = random_query_clause(t.n, rng)
            assert route(t, cs, c, np.int64(2)) == route(t, cs, c, 2)


def test_dimension_mismatches():
    with pytest.raises(ValueError, match="dimension mismatch"):
        min_model_above(ModelSet.from_bits(3, [7]), Model(4, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        Model(3, 1).leq(Model(4, 1))


def test_minimal_model_forced_false_out_of_range():
    # Every forced index is range-checked before the pinned sets are
    # compared, so [1, 9] against [1] raises as [9, 1] does.
    t = planted_horn(4, 5, 2, seed=3)
    for forced_true, forced_false, bad in [((), (0,), 0), ((), (5,), 5), ([1, 9], [1], 9), ([9, 1], [1], 9)]:
        with pytest.raises(ValueError, match=f"forced index {bad} out of range"):
            minimal_model(t, forced_true, forced_false)


def test_neighborhood_past_64_variables():
    with pytest.raises(ValueError, match="capped at n=64"):
        neighborhood(Model(65, 0), 0)


def test_non_integer_header_field():
    with pytest.raises(ParseError, match="non-integer header fields"):
        parse_horn_cnf("p hcnf x 3\n")


def test_model_set_is_frozen():
    ms = ModelSet.from_bits(2, [1])
    for name in ("n", "bits_array", "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(ms, name, 3)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(ms, name)
    assert ms.n == 2 and ms.bits_array.tolist() == [1]


def test_model_set_repr():
    assert repr(ModelSet.from_bits(2, [1, 2])) == (
        "ModelSet(n=2, models=(Model(n=2, bits=2), Model(n=2, bits=1)))"
    )
    assert repr(ModelSet(3)) == "ModelSet(n=3, models=())"


@pytest.mark.parametrize("alpha, error", BAD_ALPHAS)
def test_flip_masks_reject_bad_alpha_before_the_first_mask(alpha, error):
    masks = iter_flip_masks(3, alpha)
    with pytest.raises(error, match=MESSAGES[error]):
        next(masks)
    assert list(iter_flip_masks(3, np.int64(1))) == [0, 1, 2, 4]
