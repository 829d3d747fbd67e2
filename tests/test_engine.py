"""Unit propagation, entailment, and the characteristic-set operations."""

import random

import numpy as np
import pytest

from hornsafe import (
    Clause,
    HornTheory,
    Model,
    ModelSet,
    characteristic_set,
    charset_entails,
    deduce_envelope_formula,
    deduce_exterior_formula,
    deduce_interior_formula,
    entails,
    intersection_closure,
    is_intersection_closed,
    min_model_above,
    minimal_model,
    random_horn,
)
from hornsafe.engine import HornPropagator, _unique
from hornsafe.oracle import all_models, oracle_deduce
from conftest import random_query_clause


class TestMinimalModel:
    def test_unconstrained(self, ex2):
        assert minimal_model(ex2).to01() == "0000"

    def test_propagation(self, ex2):
        # x2 forces x3 and x4.
        assert minimal_model(ex2, {2}).to01() == "0111"

    def test_conflict_with_forced_false(self, ex2):
        assert minimal_model(ex2, {2}, {3}) is None

    def test_forced_sets_overlap(self, ex2):
        assert minimal_model(ex2, {1}, {1}) is None

    def test_empty_clause_unsat(self):
        t = HornTheory(2, (Clause(),))
        assert minimal_model(t) is None

    def test_index_out_of_range(self, ex2):
        with pytest.raises(ValueError):
            minimal_model(ex2, {9})

    def test_minimality_against_oracle(self):
        rng = random.Random(31337)
        for _ in range(60):
            n = rng.randint(2, 7)
            t = random_horn(n, rng.randint(0, 10), 3, seed=rng.getrandbits(40))
            ft = set(rng.sample(range(1, n + 1), rng.randint(0, 2)))
            ff = set(rng.sample(range(1, n + 1), rng.randint(0, 2))) - ft
            got = minimal_model(t, ft, ff)
            candidates = [
                m for m in all_models(t)
                if ft <= m.on_set() and not ff & m.on_set()
            ]
            if got is None:
                assert not candidates
            else:
                assert got in candidates
                assert all(got.leq(m) for m in candidates)


class TestEntails:
    def test_member_clause(self, ex2):
        assert entails(ex2, Clause(pos={4}, neg={2})).entailed

    def test_countermodel(self, ex2):
        d = entails(ex2, Clause(pos={4}, neg={1}))
        assert not d.entailed
        assert d.witness.to01() == "1010"

    def test_tautology_entails_only_tautologies(self):
        d = entails(HornTheory(2), Clause())
        assert not d.entailed

    def test_non_horn_query_allowed(self, ex2):
        assert entails(ex2, Clause(pos={3, 4}, neg={2})).entailed

    def test_alpha_0_answers_make_no_propagation_call(self, monkeypatch):
        # entails and the alpha = 0 exterior and envelope routes read the
        # alpha = 0 interior base; only alpha >= 1 probes propagate.
        calls = []
        probe = HornPropagator.minimal_model

        def spy(self, *args):
            calls.append(args)
            return probe(self, *args)

        monkeypatch.setattr(HornPropagator, "minimal_model", spy)
        rng = random.Random(2501)
        t = random_horn(12, 15, 3, seed=7)  # consistent: both answers occur
        deduce_interior_formula(t, Clause(), 0)  # the base exists from here on
        answers = set()
        for _ in range(60):
            c = random_query_clause(12, rng)
            for d in (entails(t, c), deduce_exterior_formula(t, c, 0), deduce_envelope_formula(t, c, 0)):
                answers.add(d.entailed)
        assert calls == [] and answers == {True, False}
        deduce_exterior_formula(t, Clause(pos={1}, neg={2}), 1)
        assert calls


class TestMinModelAbove:
    def test_member_hit(self, m1):
        assert min_model_above(m1, Model.from_string("1000")).to01() == "1000"

    def test_single_superset(self, m1):
        assert min_model_above(m1, Model.from_string("0100")).to01() == "0101"

    def test_absent(self, m1):
        assert min_model_above(m1, Model.from_string("0010")) is None

    def test_empty_charset(self):
        assert min_model_above(ModelSet(4), Model.from_string("0000")) is None


class TestCharsetEntails:
    def test_yes(self, m1):
        assert charset_entails(m1, Clause(pos={4}, neg={2})).entailed

    def test_no_with_witness(self, m1):
        d = charset_entails(m1, Clause(pos={2}, neg={1}))
        assert not d.entailed
        assert d.witness.to01() == "1000"

    def test_empty_charset_entails_everything(self):
        assert charset_entails(ModelSet(3), Clause(pos={1})).entailed

    def test_agrees_with_formula_entailment(self):
        rng = random.Random(777)
        for _ in range(80):
            n = rng.randint(2, 8)
            t = random_horn(n, rng.randint(0, 12), 3, seed=rng.getrandbits(40))
            mod = all_models(t)
            cs = characteristic_set(mod)
            c = random_query_clause(n, rng)
            expect = oracle_deduce(mod, c)
            assert entails(t, c).entailed == expect
            assert charset_entails(cs, c).entailed == expect


class TestIntersectionClosure:
    def test_example1(self, m1, m2):
        assert intersection_closure(m1) == m2

    def test_fixed_point(self, m2):
        assert intersection_closure(m2) == m2

    def test_singleton(self):
        ms = ModelSet.from_bits(3, [0b101])
        assert intersection_closure(ms) == ms

    def test_horn_mod_sets_are_closed(self):
        rng = random.Random(4242)
        for _ in range(40):
            n = rng.randint(2, 8)
            t = random_horn(n, rng.randint(0, 12), 3, seed=rng.getrandbits(40))
            mod = all_models(t)
            assert is_intersection_closed(mod)
            assert intersection_closure(mod) == mod

    def test_non_horn_set_detected(self, m1):
        assert not is_intersection_closed(m1)


class TestUnique:
    """The closure's sort-and-mask dedup against ``np.unique``."""

    def test_matches_np_unique(self):
        rng = np.random.default_rng(17)
        top = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        cases = [
            np.zeros(0, np.uint64),
            np.full(1000, 7, np.uint64),
            np.full((3, 5), top),
            rng.integers(0, top, 25_000, dtype=np.uint64, endpoint=True),
            rng.integers(0, 50, (40, 60), dtype=np.uint64),
            np.array([top, 0, top, 1, 0], np.uint64),
        ]
        for a in cases:
            got, want = _unique(a), np.unique(a)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert cases[3].max() > np.uint64(1 << 63)


class TestCharacteristicSet:
    def test_example1(self, m1, m2):
        assert characteristic_set(m2) == m1

    def test_example2(self, ex2):
        cs = characteristic_set(all_models(ex2))
        assert {m.to01() for m in cs} == {"1111", "1011", "1010", "0111", "0001"}

    def test_singleton(self):
        ms = ModelSet.from_bits(3, [0b110])
        assert characteristic_set(ms) == ms

    def test_requires_closed_input(self, m1):
        with pytest.raises(ValueError, match="not closed"):
            characteristic_set(m1)

    def test_regenerates_and_is_minimal(self):
        rng = random.Random(987)
        for _ in range(40):
            n = rng.randint(2, 7)
            t = random_horn(n, rng.randint(0, 10), 3, seed=rng.getrandbits(40))
            mod = all_models(t)
            cs = characteristic_set(mod)
            assert intersection_closure(cs) == mod
            for drop in cs:
                reduced = ModelSet(n, tuple(m for m in cs if m != drop))
                assert intersection_closure(reduced) != mod
