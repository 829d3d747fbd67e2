"""Exterior deduction under both representations and both enumeration sides."""

import random

import pytest

from hornsafe import (
    Clause,
    EnumerationLimitError,
    HornTheory,
    ModelSet,
    characteristic_set,
    charset_entails,
    clause_interior,
    deduce_exterior_charset,
    deduce_exterior_formula,
    entails,
    eval_clause,
)
from hornsafe.oracle import all_models, exterior_models, oracle_deduce
from conftest import random_instance, random_query_clause

EXT_CLAUSE = Clause(pos={3, 4}, neg={1, 2})  # the ex2 theory's whole 1-exterior


class TestDeduceExteriorFormula:
    def test_example2_exterior_clause(self, ex2):
        assert deduce_exterior_formula(ex2, EXT_CLAUSE, 1).entailed

    def test_example2_no(self, ex2):
        d = deduce_exterior_formula(ex2, Clause(pos={4}, neg={1}), 1)
        assert not d.entailed

    def test_example2_alpha2_is_tautologous(self, ex2):
        # The 2-exterior is the empty theory, which entails only tautologies.
        assert not deduce_exterior_formula(ex2, Clause(pos={1}), 2).entailed

    def test_unsat_base_entails_everything(self):
        t = HornTheory(3, (Clause(pos={1}), Clause(neg={1})))
        assert deduce_exterior_formula(t, Clause(pos={2}), 5).entailed

    def test_subset_cap(self):
        t = HornTheory(40)
        wide = Clause(neg=frozenset(range(1, 41)))
        with pytest.raises(EnumerationLimitError):
            deduce_exterior_formula(t, wide, 20, cap=100)

    def test_cap_does_not_apply_at_alpha_0(self, ex2):
        # The 0-exterior is the theory: plain entailment, nothing enumerated.
        for c in (Clause(pos={4}, neg={1}), Clause(pos={3}, neg={1}), Clause(neg={1, 2, 3, 4})):
            assert deduce_exterior_formula(ex2, c, 0, cap=0) == entails(ex2, c)
        assert not deduce_exterior_formula(ex2, Clause(pos={4}, neg={1}), 0, cap=0).entailed

    def test_duality_with_clause_interior(self):
        # exterior(t, a) |= c  iff  t entails every conjunct of interior(c, a).
        rng = random.Random(909)
        for _ in range(120):
            theory, clause, alpha = random_instance(rng, max_n=7)
            via_duality = all(
                entails(theory, d).entailed
                for d in clause_interior(clause, alpha).cnf
            )
            assert deduce_exterior_formula(theory, clause, alpha).entailed == via_duality


class TestDeduceExteriorCharset:
    def test_example2_both_methods(self, ex2_charset):
        for method in ("neg", "pos", "auto"):
            assert deduce_exterior_charset(ex2_charset, EXT_CLAUSE, 1, method=method).entailed

    def test_alpha_zero_degenerates(self, m1):
        rng = random.Random(23)
        for _ in range(40):
            c = random_query_clause(4, rng)
            expect = charset_entails(m1, c).entailed
            for method in ("neg", "pos"):
                assert deduce_exterior_charset(m1, c, 0, method=method).entailed == expect

    def test_empty_charset(self):
        assert deduce_exterior_charset(ModelSet(4), Clause(pos={1}), 2).entailed

    def test_bad_method(self, m1):
        with pytest.raises(ValueError):
            deduce_exterior_charset(m1, Clause(), 0, method="sideways")

    def test_pos_side_cap(self):
        # Candidates keep passing (every member has all of N(c) off), so the
        # tuple enumeration runs long enough to trip the work cap.
        ms = ModelSet.from_bits(16, range(256))
        wide = Clause(pos={1, 2, 3, 4}, neg=frozenset(range(9, 17)))
        with pytest.raises(EnumerationLimitError):
            deduce_exterior_charset(ms, wide, 4, method="pos", cap=50)


class TestOracleEquivalence:
    def test_all_routes_match_oracle(self):
        rng = random.Random(121212)
        for _ in range(250):
            theory, clause, alpha = random_instance(rng, max_n=8)
            mod = all_models(theory)
            target = exterior_models(mod, alpha)
            expect = oracle_deduce(target, clause)
            cs = characteristic_set(mod)
            decisions = [
                deduce_exterior_formula(theory, clause, alpha),
                deduce_exterior_charset(cs, clause, alpha, method="neg"),
                deduce_exterior_charset(cs, clause, alpha, method="pos"),
                deduce_exterior_charset(cs, clause, alpha, method="auto"),
            ]
            for d in decisions:
                assert d.entailed == expect
                if not d.entailed and d.witness is not None:
                    assert d.witness in target
                    assert not eval_clause(clause, d.witness)

    def test_exterior_grows_with_alpha_at_oracle_level(self):
        rng = random.Random(44)
        for _ in range(40):
            theory, _, _ = random_instance(rng, max_n=7)
            mod = all_models(theory)
            a = rng.randint(0, 3)
            b = a + rng.randint(0, 3)
            assert exterior_models(mod, a).bits_set <= exterior_models(mod, b).bits_set

    def test_alpha_zero_equals_plain_entailment(self):
        rng = random.Random(9)
        for _ in range(60):
            theory, clause, _ = random_instance(rng, max_n=8)
            assert (
                deduce_exterior_formula(theory, clause, 0).entailed
                == entails(theory, clause).entailed
            )


def _merge_cases(seed, count):
    """Random (theory, clause, alpha) over n <= 10, a third of the theories
    inconsistent, alpha in {0, 1, 2, |c|, |c| + 1}."""
    rng = random.Random(seed)
    for i in range(count):
        theory, clause, _ = random_instance(rng, max_n=10, force_inconsistent=i % 3 == 0)
        for alpha in sorted({0, 1, 2, len(clause), len(clause) + 1}):
            yield theory, clause, alpha


def test_formula_and_charset_neg_give_equal_decisions():
    # One neg-side loop serves both routes; only the "minimal model above S"
    # oracle differs, so whole decisions (witness and trace too) agree.
    seen_no = 0
    for theory, clause, alpha in _merge_cases(5150, 300):
        cs = characteristic_set(all_models(theory))
        df = deduce_exterior_formula(theory, clause, alpha)
        assert df == deduce_exterior_charset(cs, clause, alpha, method="neg")
        seen_no += not df.entailed
    assert seen_no > 200


def test_formula_and_charset_neg_raise_on_the_same_over_cap_query(ex2, ex2_charset):
    wide = Clause(neg={1, 2, 3, 4})
    routes = (
        lambda alpha, cap: deduce_exterior_formula(ex2, wide, alpha, cap=cap),
        lambda alpha, cap: deduce_exterior_charset(ex2_charset, wide, alpha, method="neg", cap=cap),
    )
    for route in routes:
        # 1 + 4 + 6 = 11 subsets of N(c) at alpha = 2.
        with pytest.raises(EnumerationLimitError):
            route(2, 10)
    assert routes[0](2, 11) == routes[1](2, 11)
    # alpha >= |c| collapses to one oracle call, whatever the cap.
    assert routes[0](4, 0) == routes[1](4, 0)
    assert not routes[0](4, 0).entailed


def test_charset_collapse_ignores_method(ex2_charset):
    # At alpha >= |c| every method takes the neg side's single above(()) call.
    c = Clause(pos={3}, neg={1})
    decisions = {
        deduce_exterior_charset(ex2_charset, c, alpha, method=m)
        for m in ("neg", "pos", "auto")
        for alpha in (2, 3)
    }
    assert len(decisions) == 1
    (d,) = decisions
    assert not d.entailed and d.witness.to01() == "1000"  # AND of all members is 0000


def test_over_cap_query_on_inconsistent_theory_matches_charset():
    # No model at all: one above(()) call settles the query before the cap.
    t = HornTheory(8, (Clause(pos={1}), Clause(neg={1})))
    wide = Clause(pos={8}, neg=frozenset(range(1, 8)))  # 1 + 7 + 21 subsets at alpha 2
    cs = characteristic_set(all_models(t))
    assert not len(cs)
    for alpha in (1, 2, 3):
        d = deduce_exterior_formula(t, wide, alpha, cap=1)
        assert d == deduce_exterior_charset(cs, wide, alpha, cap=1)
        assert d.entailed


# members, query, alpha, the side auto picks.  The predicted pos-side count
# is sum over |S| in |P(c)|-alpha..|P(c)| of C(|P(c)|, |S|) * k^|S| for k
# members; the neg side's is the subsets of N(c) within alpha of N(c).  The
# first two cases pick pos by 1 < 4 and 1 + 2 < 5, and would pick neg
# under one more factor of k.
AUTO_SIDES = [
    ([63, 31, 47, 55, 59], Clause(neg={1, 2, 3}), 1, "_exterior_charset_pos"),
    ([63, 31], Clause(pos={5}, neg={1, 2, 3, 4}), 1, "_exterior_charset_pos"),
    ([63, 31, 47, 55, 59], Clause(pos={4}, neg={1, 2, 3}), 1, "_exterior_neg"),    # 4 <= 1 + 5
    ([63], Clause(pos={6}, neg={1, 2, 3, 4, 5}), 2, "_exterior_charset_pos"),      # 2 < 16
    ([63], Clause(pos={4, 5, 6}, neg={1}), 0, "_exterior_neg"),                    # 1 <= 1: ties go neg
]


@pytest.mark.parametrize("members, c, alpha, side", AUTO_SIDES)
def test_auto_picks_the_side_with_the_smaller_predicted_enumeration(monkeypatch, members, c, alpha, side):
    from hornsafe import exterior

    calls = []
    for name in ("_exterior_neg", "_exterior_charset_pos"):
        real = getattr(exterior, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(exterior, name, spy)
    charset = ModelSet.from_bits(6, members)
    d = deduce_exterior_charset(charset, c, alpha)
    assert calls == [side]
    assert d == deduce_exterior_charset(charset, c, alpha, method=side.split("_")[-1])
