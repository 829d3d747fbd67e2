"""Interior deduction: clause expansion, the formula procedure, the charset scan."""

import random

import pytest

from hornsafe import (
    Clause,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
    Term,
    characteristic_set,
    charset_entails,
    clause_interior,
    deduce_interior_charset,
    deduce_interior_formula,
    entails,
    eval_clause,
    interior_cnf,
    random_horn,
)
from hornsafe.oracle import all_models, interior_models, oracle_deduce
from conftest import random_instance, random_query_clause


class TestClauseInterior:
    def test_worked_example(self):
        # c = x1 | x2 | ~x3 | ~x4 shrunk by 2.
        got = clause_interior(Clause(pos={1, 2}, neg={3, 4}), 2)
        assert set(got.dnf) == {
            Term(pos={1, 2}, neg={3}),
            Term(pos={1, 2}, neg={4}),
            Term(pos={1}, neg={3, 4}),
            Term(pos={2}, neg={3, 4}),
        }
        assert set(got.cnf) == {
            Clause(pos={1, 2}),
            Clause(pos={1}, neg={3}),
            Clause(pos={1}, neg={4}),
            Clause(pos={2}, neg={3}),
            Clause(pos={2}, neg={4}),
            Clause(neg={3, 4}),
        }

    def test_alpha_zero_is_identity(self):
        c = Clause(pos={1}, neg={2, 3})
        got = clause_interior(c, 0)
        assert got.cnf == (c,)
        assert len(got.dnf) == 3  # one unit term per literal

    def test_alpha_at_least_length_collapses(self):
        got = clause_interior(Clause(neg={1}), 1)
        assert got.cnf == (Clause(),)
        assert got.dnf == ()

    def test_cap(self):
        wide = Clause(neg=frozenset(range(1, 40)))
        with pytest.raises(EnumerationLimitError):
            clause_interior(wide, 19, cap=1000)

    def test_dnf_cnf_equivalent(self):
        from hornsafe import eval_term

        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            c = random_query_clause(n, rng)
            alpha = rng.randint(0, len(c) + 1)
            got = clause_interior(c, alpha)
            for bits in range(1 << n):
                v = Model(n, bits)
                by_cnf = all(eval_clause(d, v) for d in got.cnf)
                by_dnf = any(eval_term(t, v) for t in got.dnf)
                assert by_cnf == by_dnf


class TestInteriorCnf:
    def test_example2_alpha1(self, ex2):
        t = interior_cnf(ex2, 1)
        assert [m.to01() for m in all_models(t)] == ["0011"]

    def test_example2_alpha2_inconsistent(self, ex2):
        assert len(all_models(interior_cnf(ex2, 2))) == 0

    def test_cap_applies_to_the_cnf_only(self):
        # C(10, 3) = 120 subclauses; the DNF, never built, would have
        # C(10, 4) = 210 terms, over the cap.
        t = HornTheory(10, (Clause(neg=frozenset(range(1, 11))),))
        got = interior_cnf(t, 3, cap=150)
        assert len(got.clauses) == 120 and {len(d) for d in got.clauses} == {7}

    def test_alpha_zero_equivalent(self, ex2):
        assert all_models(interior_cnf(ex2, 0)) == all_models(ex2)

    def test_cap_counts_every_clause_before_building(self):
        # 6,858 subclauses (6,687 after repeats are dropped), none of them
        # over the cap alone.
        t = random_horn(30, 200, 10, seed=1)
        with pytest.raises(EnumerationLimitError, match=r"needs 6858 clauses \(cap 1000\)"):
            interior_cnf(t, 3, cap=1000)
        with pytest.raises(EnumerationLimitError, match=r"needs 6858 clauses \(cap 6857\)"):
            interior_cnf(t, 3, cap=6857)
        got = interior_cnf(t, 3, cap=6858)
        assert got == HornTheory(30, tuple(d for c in t.clauses for d in clause_interior(c, 3).cnf))
        assert len(got.clauses) == 6687

    def test_matches_oracle_interior(self):
        rng = random.Random(88)
        for _ in range(40):
            n = rng.randint(2, 7)
            theory, _, alpha = random_instance(rng, max_n=7)
            t = interior_cnf(theory, alpha)
            assert all_models(t) == interior_models(all_models(theory), alpha)


class TestDeduceInteriorFormula:
    def test_example2_yes(self, ex2):
        assert deduce_interior_formula(ex2, Clause(neg={1}), 1).entailed

    def test_example2_no_with_witness(self, ex2):
        d = deduce_interior_formula(ex2, Clause(neg={3}), 1)
        assert not d.entailed
        assert d.witness.to01() == "0011"
        assert d.trace == (4,)  # x4 forced into N before the NO

    def test_example2_inconsistent_interior(self, ex2):
        assert deduce_interior_formula(ex2, Clause(), 2).entailed

    def test_step3_first_clause_in_input_order(self):
        t = HornTheory(3, (Clause(pos={2}, neg={1}), Clause(pos={3}, neg={1})))
        d = deduce_interior_formula(t, Clause(neg={1}), 0)
        assert not d.entailed
        assert d.trace == (2, 3)
        assert d.witness.to01() == "111"

    def test_restart_bound(self):
        rng = random.Random(303)
        for _ in range(120):
            theory, clause, alpha = random_instance(rng, max_n=8)
            d = deduce_interior_formula(theory, clause, alpha)
            assert len(d.trace) <= theory.n


class TestDeduceInteriorCharset:
    def test_example2_yes_with_trace(self, ex2_charset):
        d = deduce_interior_charset(ex2_charset, Clause(neg={1}), 1)
        assert d.entailed
        # Deterministic scan order pins the examined non-models: v* = x1 is
        # not a model, so N gains x3; the ball of x1 x3 then holds 1110 and
        # 1000, in one block, and the J of 1000, {x3}, meets N.
        assert tuple(v.to01() for v in d.trace) == ("1000", "1110", "1000")

    def test_example2_no_with_witness(self, ex2_charset):
        d = deduce_interior_charset(ex2_charset, Clause(neg={3}), 1)
        assert not d.entailed
        assert d.witness.to01() == "0011"

    def test_alpha_zero_degenerates_to_entailment(self, m1):
        rng = random.Random(17)
        for _ in range(40):
            c = random_query_clause(4, rng)
            assert (
                deduce_interior_charset(m1, c, 0).entailed
                == charset_entails(m1, c).entailed
            )

    def test_empty_charset_is_inconsistent_theory(self):
        assert deduce_interior_charset(ModelSet(4), Clause(pos={1}), 1).entailed

    def test_neighborhood_cap(self, ex2_charset):
        with pytest.raises(EnumerationLimitError):
            deduce_interior_charset(ex2_charset, Clause(), 3, cap=4)

    def test_trace_bounded_by_n(self):
        rng = random.Random(71)
        for _ in range(80):
            theory, clause, alpha = random_instance(rng, max_n=7)
            cs = characteristic_set(all_models(theory))
            d = deduce_interior_charset(cs, clause, alpha)
            assert len(d.trace) <= theory.n + 1


class TestOracleEquivalence:
    def test_both_paths_match_oracle(self):
        rng = random.Random(606060)
        for _ in range(250):
            theory, clause, alpha = random_instance(rng, max_n=8)
            mod = all_models(theory)
            target = interior_models(mod, alpha)
            expect = oracle_deduce(target, clause)
            df = deduce_interior_formula(theory, clause, alpha)
            dc = deduce_interior_charset(characteristic_set(mod), clause, alpha)
            assert df.entailed == expect
            assert dc.entailed == expect
            for d in (df, dc):
                if not d.entailed and d.witness is not None:
                    assert d.witness in target
                    assert not eval_clause(clause, d.witness)

    def test_alpha_zero_equals_plain_entailment(self):
        rng = random.Random(321)
        for _ in range(80):
            theory, clause, _ = random_instance(rng, max_n=8)
            assert (
                deduce_interior_formula(theory, clause, 0).entailed
                == entails(theory, clause).entailed
            )

    def test_monotone_in_alpha(self):
        rng = random.Random(13)
        for _ in range(60):
            theory, clause, alpha = random_instance(rng, max_n=7)
            if deduce_interior_formula(theory, clause, alpha).entailed:
                assert deduce_interior_formula(theory, clause, alpha + 1).entailed
