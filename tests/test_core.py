"""Types, parsers, serializers, and the elementary model/clause arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornsafe import (
    Clause,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
    ParseError,
    Term,
    eval_clause,
    eval_term,
    neighborhood,
    parse_horn_cnf,
    parse_model_set,
    serialize_horn_cnf,
    serialize_model_set,
)
from hornsafe.core import Decision, index_mask, mask_indices
from conftest import EX2_TEXT


class TestModel:
    def test_string_orientation_leftmost_is_x1(self):
        v = Model.from_string("0101")
        assert v.on_set() == {2, 4}
        assert v.off_set() == {1, 3}
        assert v.to01() == "0101"

    def test_from_on(self):
        assert Model.from_on(4, {2, 4}) == Model.from_string("0101")

    def test_bits_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            Model(2, 0b100)

    def test_bits_stored_as_plain_int(self):
        for bits in (np.int64(5), True):
            assert type(Model(3, bits).bits) is int
        assert repr(Model(3, np.int64(5))) == "Model(n=3, bits=5)"

    def test_hamming_and_order(self):
        a = Model.from_string("0101")
        b = Model.from_string("1101")
        assert a.hamming(b) == 1
        assert a.leq(Model.from_string("1101"))
        assert not b.leq(a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Model.from_string("01").hamming(Model.from_string("011"))


class TestClause:
    def test_tautology_rejected(self):
        with pytest.raises(ValueError):
            Clause(pos={1}, neg={1, 2})

    def test_from_literals(self):
        c = Clause.from_literals([-1, 3])
        assert c.neg == {1} and c.pos == {3}
        with pytest.raises(ValueError):
            Clause.from_literals([1, 0])

    def test_horn_flag(self):
        assert Clause(pos={1}, neg={2, 3}).is_horn
        assert Clause(neg={2, 3}).is_horn
        assert Clause().is_horn
        assert not Clause(pos={1, 2}).is_horn

    def test_literals_order(self):
        assert Clause(pos={3}, neg={4, 1}).literals() == (-1, -4, 3)


class TestEvalClause:
    def test_mixed_clause_on_known_models(self):
        c = Clause(pos={3, 4}, neg={1, 2})
        assert eval_clause(c, Model.from_string("0101"))
        assert not eval_clause(c, Model.from_string("1100"))

    def test_empty_clause_never_satisfied(self):
        assert not eval_clause(Clause(), Model.from_string("0101"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_clause(Clause(pos={5}), Model.from_string("0101"))

    @given(st.integers(1, 6), st.data())
    def test_definition_identity(self, n, data):
        bits = data.draw(st.integers(0, (1 << n) - 1))
        v = Model(n, bits)
        pos = data.draw(st.frozensets(st.integers(1, n)))
        neg = data.draw(st.frozensets(st.integers(1, n))) - pos
        c = Clause(pos, neg)
        expected = not (
            all(i not in v.on_set() for i in pos)
            and all(i in v.on_set() for i in neg)
        )
        assert eval_clause(c, v) == expected


class TestEvalTerm:
    def test_basic(self):
        t = Term(pos={2}, neg={1})
        assert eval_term(t, Model.from_string("0101"))
        assert not eval_term(t, Model.from_string("1101"))


class TestNeighborhood:
    def test_radius_zero(self):
        v = Model.from_string("0000")
        assert neighborhood(v, 0) == ModelSet(4, (v,))

    def test_radius_one_size_and_members(self):
        got = neighborhood(Model.from_string("0000"), 1)
        rows = {m.to01() for m in got}
        assert rows == {"0000", "1000", "0100", "0010", "0001"}
        assert len(got) == 5  # C(4,0) + C(4,1)

    def test_saturates_to_full_cube(self):
        assert len(neighborhood(Model.from_string("010"), 7)) == 8

    def test_subset_of_example_models(self, ex2):
        from hornsafe.oracle import all_models

        mod = all_models(ex2)
        assert all(w in mod for w in neighborhood(Model.from_string("0011"), 1))

    def test_cap_checked_before_building(self, monkeypatch):
        # At n = 10 the alpha = 2 ball has 56 vectors and the alpha = 3 one 176.
        monkeypatch.setattr("hornsafe.core.NEIGHBORHOOD_CAP", 100)
        v = Model(10, 0b1010011010)
        assert len(neighborhood(v, 2)) == 56
        with pytest.raises(EnumerationLimitError, match="has 176 vectors, over the cap of 100"):
            neighborhood(v, 3)

    @given(st.integers(1, 6), st.data())
    def test_symmetry(self, n, data):
        v = Model(n, data.draw(st.integers(0, (1 << n) - 1)))
        w = Model(n, data.draw(st.integers(0, (1 << n) - 1)))
        alpha = data.draw(st.integers(0, n))
        assert (w in neighborhood(v, alpha)) == (v in neighborhood(w, alpha))


class TestHornTheory:
    def test_rejects_non_horn(self):
        with pytest.raises(ValueError):
            HornTheory(3, (Clause(pos={1, 2}),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            HornTheory(3, (Clause(pos={4}),))

    def test_dedup_preserves_order(self):
        a, b = Clause(neg={1}), Clause(pos={2}, neg={1})
        t = HornTheory(3, (a, b, a))
        assert t.clauses == (a, b)

    def test_dedup_keeps_the_first_object_of_each_clause(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            pool = [(), (rng.randint(1, n),)]  # the empty clause and a fact
            for _ in range(rng.randint(1, 6)):
                body = rng.sample(range(1, n + 1), rng.randint(0, n))
                head = rng.choice([0] + [i for i in range(1, n + 1) if i not in body])
                pool.append(tuple(-i for i in body) + ((head,) if head else ()))
            clauses = []
            for _ in range(rng.randint(0, 20)):
                lits = list(rng.choice(pool))
                rng.shuffle(lits)  # the same clause, its literals in another order
                clauses.append(Clause.from_literals(lits))
            t = HornTheory(n, clauses)
            first = tuple(dict.fromkeys(clauses))
            assert t.clauses == first
            assert all(kept is want for kept, want in zip(t.clauses, first))
            assert len(t.flat.heads) == len(first) and t == HornTheory(n, first)

    def test_size_measure(self, ex2):
        assert ex2.size == 6

    def test_is_negative(self):
        assert HornTheory(3, (Clause(neg={1, 2}),)).is_negative
        assert not HornTheory(3, (Clause(pos={1}),)).is_negative


class TestParseHornCnf:
    def test_example_theory(self, ex2):
        assert ex2.n == 4
        assert ex2.clauses == (
            Clause(pos={3}, neg={1}),
            Clause(pos={3}, neg={2}),
            Clause(pos={4}, neg={2}),
        )

    def test_empty_theory(self):
        t = parse_horn_cnf("p hcnf 2 0\n")
        assert t.n == 2 and t.clauses == ()

    def test_two_positive_literals_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse_horn_cnf("p hcnf 2 1\n1 2 0\n")

    def test_sign_overlap_rejected(self):
        with pytest.raises(ParseError, match="both signs"):
            parse_horn_cnf("p hcnf 2 1\n1 -1 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_horn_cnf("p hcnf 2 1\n-3 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_horn_cnf("p cnf 2 1\n-1 0\n")
        with pytest.raises(ParseError, match="header"):
            parse_horn_cnf("-1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="end with 0"):
            parse_horn_cnf("p hcnf 2 1\n-1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="announced"):
            parse_horn_cnf("p hcnf 2 2\n-1 0\n")

    def test_duplicate_clause_warns(self):
        # The header counts lines; the duplicate line is dropped with a warning.
        with pytest.warns(UserWarning, match="duplicate"):
            t = parse_horn_cnf("p hcnf 2 2\n-1 2 0\n2 -1 0\n")
        assert len(t.clauses) == 1

    def test_empty_clause_line(self):
        t = parse_horn_cnf("p hcnf 2 1\n0\n")
        assert t.clauses == (Clause(),)

    def test_bytes_accepted(self):
        assert parse_horn_cnf(EX2_TEXT.encode()).n == 4


class TestParseModelSet:
    def test_m1(self, m1):
        assert m1.n == 4
        assert {m.to01() for m in m1} == {"0101", "1001", "1000"}

    def test_empty(self):
        assert len(parse_model_set("p models 1 0\n")) == 0

    def test_wrong_length(self):
        with pytest.raises(ParseError, match="length"):
            parse_model_set("p models 4 1\n010\n")

    def test_bad_characters(self):
        with pytest.raises(ParseError, match="outside 0/1"):
            parse_model_set("p models 3 1\n01x\n")

    def test_duplicate_row_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            ms = parse_model_set("p models 2 2\n01\n01\n")
        assert len(ms) == 1

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError, match="announced"):
            parse_model_set("p models 2 3\n01\n10\n")


class TestRoundTrips:
    def test_theory_round_trip(self, ex2):
        assert parse_horn_cnf(serialize_horn_cnf(ex2)) == ex2

    def test_canonical_file_fixed_point(self, ex2):
        canonical = serialize_horn_cnf(ex2)
        assert serialize_horn_cnf(parse_horn_cnf(canonical)) == canonical

    def test_model_set_round_trip(self, m1):
        text = serialize_model_set(m1)
        assert parse_model_set(text) == m1
        assert serialize_model_set(parse_model_set(text)) == text

    def test_rows_in_canonical_order(self, m1):
        assert serialize_model_set(m1).splitlines()[1:] == ["0101", "1000", "1001"]

    def test_empty_theory_serialization(self):
        assert serialize_horn_cnf(HornTheory(3)) == "p hcnf 3 0\n"

    @settings(max_examples=60)
    @given(st.data())
    def test_random_theory_round_trip(self, data):
        n = data.draw(st.integers(1, 8))
        clauses = []
        for _ in range(data.draw(st.integers(0, 6))):
            pos = data.draw(st.frozensets(st.integers(1, n), max_size=1))
            neg = data.draw(st.frozensets(st.integers(1, n))) - pos
            clauses.append(Clause(pos, neg))
        t = HornTheory(n, tuple(clauses))
        assert parse_horn_cnf(serialize_horn_cnf(t)) == t

    @settings(max_examples=60)
    @given(st.data())
    def test_random_model_set_round_trip(self, data):
        n = data.draw(st.integers(1, 8))
        bits = data.draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=12))
        ms = ModelSet.from_bits(n, bits)
        assert parse_model_set(serialize_model_set(ms)) == ms


def _loop_mask(indices):
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def _loop_indices(mask):
    return frozenset(i for i, bit in enumerate(reversed(bin(mask)[2:]), start=1) if bit == "1")


class TestBitPacking:
    @pytest.mark.parametrize("n", [1, 7, 64, 65, 1000, 1 << 20])
    def test_pack_and_unpack_match_plain_loops(self, n):
        rng = random.Random(n)
        for k in (0, 1, 5, 64, 65, 500, 4000):
            idx = [rng.randint(1, n) for _ in range(k)]  # unsorted, with duplicates
            mask = _loop_mask(idx)
            assert index_mask(idx) == mask
            assert index_mask(iter(idx)) == mask
            assert mask_indices(mask) == _loop_indices(mask) == frozenset(idx)

    def test_the_whole_range_round_trips(self):
        full = (1 << (1 << 20)) - 1
        assert index_mask(range(1, (1 << 20) + 1)) == full
        assert len(mask_indices(full)) == 1 << 20

    @pytest.mark.parametrize("k", [1, 70])
    def test_index_zero_is_rejected(self, k):
        with pytest.raises(ValueError):
            index_mask([0, *range(1, k)])

    @pytest.mark.parametrize("k", [1, 64, 65, 70])
    @pytest.mark.parametrize("bad", [0, -3])
    def test_a_nonpositive_index_has_one_message_at_any_length(self, k, bad):
        # Lists of up to 64 indices are ORed in a loop, longer ones packed
        # by numpy: both check first.
        with pytest.raises(ValueError, match=f"^variable index must be positive, got {bad}$"):
            index_mask([*range(1, k), bad])


class TestLiteralSets:
    """Clause and Term share one base: the same index checks, masks, width
    and size; only the overlap message names the object."""

    @pytest.mark.parametrize("cls", [Clause, Term])
    @pytest.mark.parametrize("sets", [{"pos": {0}}, {"neg": {-1}}, {"pos": {"a"}}, {"neg": {np.int64(2)}}])
    def test_rejects_an_index_that_is_not_a_positive_int(self, cls, sets):
        with pytest.raises(ValueError, match="variable index must be a positive int"):
            cls(**sets)

    def test_overlap_messages(self):
        with pytest.raises(ValueError, match=r"^tautological clause: indices \[2\]"):
            Clause(pos={2, 3}, neg={1, 2})
        with pytest.raises(ValueError, match=r"^contradictory term: indices \[1, 2\]"):
            Term(pos={1, 2}, neg={1, 2})

    def test_term_width_masks_and_len(self):
        t = Term(pos=[3, 1], neg={4})
        assert (t.pos, t.neg) == (frozenset({1, 3}), frozenset({4}))
        assert (t.width, t.pos_mask, t.neg_mask, len(t)) == (4, 0b101, 0b1000, 3)
        assert len(Term()) == 0 and Term().width == 0

    def test_term_is_not_a_clause(self):
        assert not isinstance(Term(), Clause) and not isinstance(Clause(), Term)
        assert Term(pos={1}) != Clause(pos={1})
        assert repr(Term(pos={1})) == "Term(pos=frozenset({1}), neg=frozenset())"

    def test_eval_term_rejects_a_term_wider_than_the_model(self):
        with pytest.raises(ValueError, match="beyond the model"):
            eval_term(Term(neg={5}), Model.from_string("0101"))
        assert eval_term(Term(), Model.from_string("0"))


class TestOtherTypes:
    def test_equality_with_another_type_is_false(self, ex2):
        assert (ex2 == 3) is False and (ex2 != 3) is True
        assert (ModelSet(2) == 3) is False

    def test_decision_truth_is_its_answer(self):
        assert not Decision(False) and Decision(False).answer == "NO"
        assert Decision(True) and Decision(True).answer == "YES"


def test_a_term_is_refused_where_a_clause_is_checked(ex2, ex2_charset):
    from hornsafe import (charset_entails, deduce_envelope_charset, deduce_envelope_formula,
                          deduce_exterior_charset, deduce_exterior_formula, deduce_interior_charset,
                          deduce_interior_formula, entails, oracle_deduce)

    t = Term(pos={3}, neg={1})
    calls = [lambda: entails(ex2, t), lambda: charset_entails(ex2_charset, t),
             lambda: eval_clause(t, Model(4, 0)), lambda: oracle_deduce(ex2_charset, t)]
    calls += [lambda r=r: r(ex2, t, 1) for r in
              (deduce_interior_formula, deduce_exterior_formula, deduce_envelope_formula)]
    calls += [lambda r=r: r(ex2_charset, t, 1) for r in
              (deduce_interior_charset, deduce_exterior_charset, deduce_envelope_charset)]
    for call in calls:
        with pytest.raises(TypeError, match="expected a Clause, got Term"):
            call()
