"""The 2^n flag-table branch of the model-side kernels against their sort
branch and the oracle, ``all_models``'s live-word unpacking against a brute
force, and the ``needed``/``cap`` attributes of every cap's error."""

import pickle
import random

import numpy as np
import pytest

from hornsafe import (
    Clause,
    EnumerationLimitError,
    HornTheory,
    ModelSet,
    characteristic_set,
    core,
    deduce_envelope_formula,
    deduce_exterior_charset,
    deduce_exterior_formula,
    deduce_interior_charset,
    engine,
    intersection_closure,
    interior_cnf,
    is_intersection_closed,
    neighborhood,
    oracle,
)
from hornsafe.interior import clause_interior

WIDE = 30  # 2^30 > CLOSURE_CAP: the sort branch
HIGH = 20  # constant-one bits above the n <= 10 low ones


def pad(ms: ModelSet) -> ModelSet:
    """``ms`` at n = 30 with bits n .. n + 19 on in every member.  ANDs and
    the order between members are those of the low bits, so every kernel's
    result is the padded form of its result on ``ms``."""
    return ModelSet.from_bits(WIDE, ms.bits_array | np.uint64(((1 << HIGH) - 1) << ms.n))


def unpad(ms: ModelSet, n: int) -> ModelSet:
    return ModelSet.from_bits(n, ms.bits_array & np.uint64((1 << n) - 1))


def kernels(ms: ModelSet):
    """(closure, closed, extraction) of one set, the extraction being the
    characteristic set when the set is closed."""
    closed = is_intersection_closed(ms)
    if closed:
        kept = characteristic_set(ms)
    else:
        with pytest.raises(ValueError, match="not closed"):
            characteristic_set(ms)
        kept = ModelSet.from_bits(ms.n, engine._characteristic(ms)[0])
    return intersection_closure(ms), closed, kept


def test_flag_and_sort_branches_agree(monkeypatch):
    assert 1 << 10 <= engine.CLOSURE_CAP < 1 << WIDE
    tables = []
    flags = core._member_flags
    monkeypatch.setattr(engine, "_member_flags", lambda arr, n: tables.append(n) or flags(arr, n))
    rng = random.Random(1930)
    seen = {True: 0, False: 0}
    for k in range(300):
        n = rng.randint(1, 10)
        ms = ModelSet.from_bits(n, rng.sample(range(1 << n), rng.randint(1, min(1 << n, 60))))
        for s in (ms, oracle.intersection_closure(ms)) if k % 3 else (ms,):
            del tables[:]
            closure, closed, kept = kernels(s)
            assert tables and set(tables) == {n}  # the flag branch ran
            del tables[:]
            wide_closure, wide_closed, wide_kept = kernels(pad(s))
            assert not tables  # the sort branch ran
            assert closure == unpad(wide_closure, n) == oracle.intersection_closure(s)
            assert closed == wide_closed == (s == closure)
            assert kept == unpad(wide_kept, n)
            seen[closed] += 1
    assert seen[True] > 150 and seen[False] > 100


def test_flag_branch_with_small_blocks(monkeypatch):
    # Many blocks per round: a product new in one block is flagged before
    # the next, so no round's frontier repeats a member.
    monkeypatch.setattr(engine, "_BLOCK", 8)
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(4, 9)
        ms = ModelSet.from_bits(n, rng.sample(range(1 << n), rng.randint(2, min(30, 1 << n))))
        assert intersection_closure(ms) == oracle.intersection_closure(ms)
        assert unpad(intersection_closure(pad(ms)), n) == oracle.intersection_closure(ms)


def brute(n: int, clauses: list[tuple[int, list[int]]]) -> set[int]:
    """Models by plain int tests: a clause fails where its body is all true
    and its head (0: none) false."""
    masks = [(sum(1 << (i - 1) for i in body), 1 << (h - 1) if h else 0) for h, body in clauses]
    return {a for a in range(1 << n) if all(a & b != b or a & h for b, h in masks)}


def theory(n: int, clauses: list[tuple[int, list[int]]]) -> HornTheory:
    return HornTheory(n, tuple(Clause(pos={h} if h else set(), neg=set(b)) for h, b in clauses))


def planted_clauses(rng: random.Random, n: int, count: int, hidden: int) -> list[tuple[int, list[int]]]:
    """(head, body) pairs, head 0 for none, each satisfied by the vector
    ``hidden``: facts, rules with up to three body variables and headless
    clauses, so the theory keeps at least that one model."""
    out = []
    while len(out) < count:
        body = rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))
        head = rng.choice([0] + [i for i in range(1, n + 1) if i not in body])
        fires = all(hidden >> (i - 1) & 1 for i in body)
        if not fires or head and hidden >> (head - 1) & 1:
            out.append((head, body))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_all_models_in_one_partial_word(n):
    rng = random.Random(n)
    cases = [[], [(0, [])], [(0, list(range(1, n + 1)))]]
    cases += [planted_clauses(rng, n, rng.randint(0, 8), rng.getrandbits(n)) for _ in range(60)]
    for clauses in cases:
        assert oracle.all_models(theory(n, clauses)).bits_set == brute(n, clauses)


@pytest.mark.parametrize("compact", [1, 2, 16])
def test_all_models_when_words_die_early(monkeypatch, compact):
    monkeypatch.setattr(oracle, "_COMPACT", compact)
    rng = random.Random(compact)
    n = 12
    top3 = 7 << (n - 3)
    cases = [[(1, []), (0, [1])] + planted_clauses(rng, n, 30, rng.getrandbits(n)),  # every word dies at clause 2
             [(n, []), (n - 1, []), (n - 2, [])]                                        # one word in eight lives
             + planted_clauses(rng, n, 30, top3 | rng.getrandbits(n)),
             [(0, [i]) for i in range(1, n + 1)] + planted_clauses(rng, n, 30, 0),      # only the zero vector lives
             [(0, [n])] + [(0, [n, i]) for i in range(1, n)]                            # half the words live when
             + [(0, [n - 1])] + [(0, [n - 1, i]) for i in range(1, n - 1)]]             # compaction first runs
    cases += [planted_clauses(rng, n, 40, rng.getrandbits(n)) for _ in range(30)]
    for clauses in cases:
        assert oracle.all_models(theory(n, clauses)).bits_set == brute(n, clauses)


def test_ball_fold_caps_the_ball_before_any_gather(monkeypatch):
    gathers = []
    monkeypatch.setattr(oracle, "_member_flags", lambda *args: gathers.append(args))
    ms = ModelSet.from_bits(24, [0])
    for fold in (oracle.interior_models, oracle.exterior_models):
        with pytest.raises(EnumerationLimitError, match="alpha=12 neighborhood at n=24") as err:
            fold(ms, 12)
        assert (err.value.needed, err.value.cap) == (core._ball_size(24, 12), core.NEIGHBORHOOD_CAP)
    assert not gathers
    monkeypatch.undo()
    # The cap is read at call time.
    small = ModelSet.from_bits(5, [0, 3, 31])
    monkeypatch.setattr(core, "NEIGHBORHOOD_CAP", 15)
    with pytest.raises(EnumerationLimitError, match="has 16 vectors, over the cap of 15") as err:
        oracle.exterior_models(small, 2)
    assert (err.value.needed, err.value.cap) == (16, 15)
    monkeypatch.setattr(core, "NEIGHBORHOOD_CAP", 16)
    assert len(oracle.exterior_models(small, 2)) > len(small)


def limit(call) -> EnumerationLimitError:
    with pytest.raises(EnumerationLimitError) as err:
        call()
    return err.value


def test_every_cap_reports_needed_and_cap(monkeypatch):
    top = (1 << 12) - 1
    monkeypatch.setattr(engine, "CLOSURE_CAP", 1000)
    err = limit(lambda: intersection_closure(ModelSet.from_bits(12, [top] + [top & ~(1 << i) for i in range(12)])))
    assert err.cap == 1000 and err.needed > 1000 and str(err).split()[2] == str(err.needed)
    monkeypatch.undo()

    err = limit(lambda: neighborhood(core.Model(64, 0), 5))
    assert (err.needed, err.cap) == (core._ball_size(64, 5), core.NEIGHBORHOOD_CAP)

    wide = Clause(neg=frozenset(range(1, 11)))
    err = limit(lambda: interior_cnf(HornTheory(10, (wide,)), 3, cap=100))
    assert (err.needed, err.cap) == (120, 100)
    err = limit(lambda: clause_interior(wide, 3, cap=100))
    assert (err.needed, err.cap) == (210, 100)

    err = limit(lambda: deduce_interior_charset(ModelSet.from_bits(10, [1]), Clause(neg={1}), 2, cap=50))
    assert (err.needed, err.cap) == (56, 50)

    err = limit(lambda: deduce_exterior_formula(HornTheory(40), Clause(neg=frozenset(range(1, 41))), 20, cap=100))
    assert err.needed == core._ball_size(40, 20) and err.cap == 100

    pos_side = Clause(pos={1, 2, 3, 4}, neg=frozenset(range(9, 17)))
    err = limit(lambda: deduce_exterior_charset(ModelSet.from_bits(16, range(256)), pos_side, 4, method="pos", cap=50))
    assert err.cap == 50 and err.needed > 50

    query = Clause(pos={7}, neg={1, 2, 3, 4, 5, 6})
    err = limit(lambda: deduce_envelope_formula(HornTheory(7, ()), query, 3, cap=10))
    assert (err.needed, err.cap) == (15, 10)  # step 1: C(6, 4) subsets

    again = pickle.loads(pickle.dumps(err))
    assert (str(again), again.needed, again.cap) == (str(err), 15, 10)
