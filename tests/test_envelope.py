"""Deduction against the Horn envelope of the exterior."""

import random

import pytest

from hornsafe import (
    Clause,
    EnumerationLimitError,
    HornTheory,
    ModelSet,
    characteristic_set,
    charset_entails,
    deduce_envelope_charset,
    deduce_envelope_formula,
    deduce_exterior_formula,
    entails,
    eval_clause,
)
from hornsafe.engine import HornPropagator
from hornsafe.oracle import all_models, envelope_models, exterior_models, oracle_deduce
from conftest import random_instance, random_query_clause

EXT_CLAUSE = Clause(pos={3, 4}, neg={1, 2})


class TestDeduceEnvelopeCharset:
    def test_m1_all_negative_query(self, m1):
        # Every member has >= 2 off-bits inside {1,2,3}, so the boundary is empty.
        assert deduce_envelope_charset(m1, Clause(neg={1, 2, 3}), 1).entailed

    def test_example2_envelope_is_weaker(self, ex2_charset):
        # 1111 has no off-bits inside N(c): condition (i) fails.
        d = deduce_envelope_charset(ex2_charset, EXT_CLAUSE, 1)
        assert not d.entailed
        assert d.trace and d.trace[0].to01() == "1111"

    def test_alpha_zero_degenerates(self, m1):
        rng = random.Random(55)
        for _ in range(40):
            c = random_query_clause(4, rng)
            assert (
                deduce_envelope_charset(m1, c, 0).entailed
                == charset_entails(m1, c).entailed
            )

    def test_empty_charset(self):
        assert deduce_envelope_charset(ModelSet(4), Clause(pos={1}), 3).entailed


class TestDeduceEnvelopeFormula:
    def test_example2(self, ex2):
        assert not deduce_envelope_formula(ex2, EXT_CLAUSE, 1).entailed

    def test_example2_alpha_zero(self, ex2):
        # 0000 is a model, so x3 is not entailed even by the 0-envelope.
        assert not deduce_envelope_formula(ex2, Clause(pos={3}), 0).entailed

    def test_cap_does_not_apply_at_alpha_0(self, ex2):
        # The 0-envelope is the theory: plain entailment, nothing enumerated.
        for c in (Clause(pos={4}, neg={1}), Clause(pos={3}, neg={1}), Clause(neg={1, 2, 3, 4})):
            assert deduce_envelope_formula(ex2, c, 0, cap=0) == entails(ex2, c)
        assert not deduce_envelope_formula(ex2, Clause(pos={4}, neg={1}), 0, cap=0).entailed

    def test_negative_theory_collapses_to_exterior(self):
        rng = random.Random(66)
        for _ in range(80):
            theory, clause, alpha = random_instance(rng, max_n=7, neg_only=True)
            assert theory.is_negative
            assert (
                deduce_envelope_formula(theory, clause, alpha).entailed
                == deduce_exterior_formula(theory, clause, alpha).entailed
            )

    def test_unsat_base(self):
        t = HornTheory(3, (Clause(pos={1}), Clause(neg={1})))
        assert deduce_envelope_formula(t, Clause(pos={2}), 4).entailed

    def test_empty_positive_side_needs_one_sat_branch(self):
        # P(c) empty: NO exactly when some step-2 branch is satisfiable.
        t = HornTheory(3, (Clause(neg={1, 2}),))
        assert not deduce_envelope_formula(t, Clause(neg={1, 2, 3}), 3).entailed


class TestEnvelopeFormulaCaps:
    """Each step checks its subset count just before its first probe.  With
    |N(c)| = 6 and alpha = 2, step 1 has C(6, 5) = 6 subsets and step 2
    C(6, 4) = 15; at alpha = 3, step 1 has C(6, 4) = 15."""

    QUERY = Clause(pos={7}, neg={1, 2, 3, 4, 5, 6})

    @staticmethod
    def _count_probes(monkeypatch):
        calls = []
        probe = HornPropagator.minimal_model

        def spy(self, *args):
            calls.append(args)
            return probe(self, *args)

        monkeypatch.setattr(HornPropagator, "minimal_model", spy)
        return calls

    def test_step_1_over_the_cap_raises_before_any_probe(self, monkeypatch):
        calls = self._count_probes(monkeypatch)
        with pytest.raises(EnumerationLimitError, match="^step-1 enumeration exceeds the cap of 10$"):
            deduce_envelope_formula(HornTheory(7, ()), self.QUERY, 3, cap=10)
        assert calls == []

    def test_step_2_over_the_cap_is_not_reached_after_a_step_1_no(self, monkeypatch):
        calls = self._count_probes(monkeypatch)
        t = HornTheory(7, ())
        got = deduce_envelope_formula(t, self.QUERY, 2, cap=10)
        assert not got.entailed and len(calls) == 1
        assert got == deduce_envelope_formula(t, self.QUERY, 2)

    def test_step_2_over_the_cap_raises_when_step_1_finds_no_model(self, monkeypatch):
        # Any five of x1..x6 hold both x1, x2 or both x3, x4: every step-1
        # probe is unsatisfiable.
        calls = self._count_probes(monkeypatch)
        t = HornTheory(7, (Clause(neg={1, 2}), Clause(neg={3, 4})))
        with pytest.raises(EnumerationLimitError, match="^step-2 enumeration exceeds the cap of 10$"):
            deduce_envelope_formula(t, self.QUERY, 2, cap=10)
        assert len(calls) == 6
        assert not deduce_envelope_formula(t, self.QUERY, 2, cap=15).entailed  # x7 is off in every branch


class TestOracleEquivalence:
    def test_both_paths_match_oracle(self):
        rng = random.Random(343434)
        for _ in range(250):
            theory, clause, alpha = random_instance(rng, max_n=8)
            mod = all_models(theory)
            target = envelope_models(exterior_models(mod, alpha))
            expect = oracle_deduce(target, clause)
            df = deduce_envelope_formula(theory, clause, alpha)
            dc = deduce_envelope_charset(characteristic_set(mod), clause, alpha)
            assert df.entailed == expect
            assert dc.entailed == expect
            for d in (df, dc):
                if not d.entailed and d.witness is not None:
                    assert d.witness in target
                    assert not eval_clause(clause, d.witness)

    def test_envelope_is_weaker_than_exterior(self):
        rng = random.Random(78)
        for _ in range(100):
            theory, clause, alpha = random_instance(rng, max_n=7)
            if deduce_envelope_formula(theory, clause, alpha).entailed:
                assert deduce_exterior_formula(theory, clause, alpha).entailed

    def test_alpha_zero_equals_plain_entailment(self):
        rng = random.Random(90)
        for _ in range(60):
            theory, clause, _ = random_instance(rng, max_n=8)
            assert (
                deduce_envelope_formula(theory, clause, 0).entailed
                == entails(theory, clause).entailed
            )


def test_every_no_witness_lies_in_the_envelope():
    # Condition (i) witnesses (trace set) and cover witnesses (no trace) from
    # both routes, checked against the enumerated envelope.
    rng = random.Random(60606)
    cover_hits = {("formula", "empty P(c)"): 0, ("formula", "|P(c)| >= 2"): 0,
                  ("charset", "empty P(c)"): 0, ("charset", "|P(c)| >= 2"): 0}
    for i in range(400):
        theory, clause, alpha = random_instance(rng, max_n=8, force_inconsistent=i % 5 == 0)
        mod = all_models(theory)
        target = envelope_models(exterior_models(mod, alpha))
        for name, d in (
            ("formula", deduce_envelope_formula(theory, clause, alpha)),
            ("charset", deduce_envelope_charset(characteristic_set(mod), clause, alpha)),
        ):
            assert d.entailed == oracle_deduce(target, clause)
            if d.entailed:
                continue
            assert d.witness in target
            assert not eval_clause(clause, d.witness)
            if not d.trace:
                shape = "empty P(c)" if not clause.pos else (
                    "|P(c)| >= 2" if len(clause.pos) >= 2 else None)
                if shape:
                    cover_hits[name, shape] += 1
    assert min(cover_hits.values()) >= 3, cover_hits
