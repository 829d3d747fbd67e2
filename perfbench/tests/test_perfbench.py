"""Tests of the benchmark's own generator and verifier.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
The package's enumeration oracle is the reference here, at n <= 10.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import kbgen  # noqa: E402
import workloads  # noqa: E402
from kbgen import PlannedQuery  # noqa: E402
from reference import RefTheory, and_closure, enumerate_models, meet_irreducibles  # noqa: E402

from hornsafe import Clause, HornTheory, ModelSet  # noqa: E402
from hornsafe import oracle as hs_oracle  # noqa: E402

KINDS = ("kb", "interior", "exterior", "envelope")


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    built = []
    for copy in ("a", "b"):
        wl = workloads.WORKLOADS[name](random.Random(f"7:{name}"), tmp_path / copy)
        wl.build()
        built.append(_files(tmp_path / copy))
    assert built[0] == built[1]
    other = workloads.WORKLOADS[name](random.Random(f"8:{name}"), tmp_path / "c")
    other.build()
    assert _files(tmp_path / "c") != built[0]


@pytest.mark.parametrize("seed", range(5))
def test_planted_model_satisfies_generated_theories(seed):
    rng = random.Random(seed)
    t = kbgen.planted_theory(rng, 300, 3000, gadgets=5)
    ref = RefTheory(t.n, t.clauses)
    assert ref.min_true_literals(t.planted) >= kbgen.MIN_TRUE
    assert ref.closure(()) is not None
    kb = kbgen.planted_blocks(rng, [6, 6], 3)
    assert kb.oracle.in_target("interior", kb.theory.planted, 2)
    assert RefTheory(kb.n, kb.theory.clauses).min_true_literals(kb.theory.planted) >= kbgen.MIN_TRUE
    st = kbgen.small_theory(rng, 12, 50, 200, 40)
    assert 50 <= len(st.models) <= 200 and len(st.clauses) == 40
    assert np.array_equal(enumerate_models(12, st.clauses), st.models)


def _oracle_targets(models: ModelSet, alpha: int) -> dict[str, ModelSet]:
    ext = hs_oracle.exterior_models(models, alpha)
    return {"kb": models, "interior": hs_oracle.interior_models(models, alpha),
            "exterior": ext, "envelope": hs_oracle.envelope_models(ext)}


def _all_queries(n: int, max_len: int):
    for size in range(1, max_len + 1):
        for vs in combinations(range(1, n + 1), size):
            for k in range(size + 1):
                for pos in combinations(vs, k):
                    yield tuple(sorted(set(vs) - set(pos))), tuple(pos)


@pytest.mark.parametrize("seed", range(4))
def test_formula_reference_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    n = 7
    t = kbgen.planted_theory(rng, n, 14, gadgets=1)
    ref = RefTheory(n, t.clauses)
    theory = HornTheory(n, tuple(Clause(pos=frozenset([h]) if h else frozenset(), neg=frozenset(b))
                                 for h, b in t.clauses))
    models = hs_oracle.all_models(theory)
    assert set(enumerate_models(n, t.clauses).tolist()) == models.bits_set
    for alpha in range(3):
        targets = _oracle_targets(models, alpha)
        for q in _all_queries(n, 3):
            c = Clause(pos=frozenset(q[1]), neg=frozenset(q[0]))
            for kind in KINDS:
                assert ref.truth(kind, q, alpha) == hs_oracle.oracle_deduce(targets[kind], c), (kind, q, alpha)


@pytest.mark.parametrize("seed", range(3))
def test_block_oracle_agrees_with_enumeration(seed):
    kb = kbgen.planted_blocks(random.Random(seed), [5, 5], 2)
    closure = and_closure(kb.members)
    models = ModelSet.from_bits(kb.n, closure)
    product = {a | b << 5 for a in np.flatnonzero(kb.oracle.blocks[0].member)
               for b in np.flatnonzero(kb.oracle.blocks[1].member)}
    assert closure == product
    assert set(meet_irreducibles(np.array(sorted(closure), dtype=np.uint64)).tolist()) == set(kb.members)
    for alpha in range(3):
        targets = _oracle_targets(models, alpha)
        for kind in KINDS:
            assert {w for w in range(1 << kb.n) if kb.oracle.in_target(kind, w, alpha)} == targets[kind].bits_set
        for q in _all_queries(kb.n, 2):
            c = Clause(pos=frozenset(q[1]), neg=frozenset(q[0]))
            for kind in KINDS:
                assert kb.oracle.truth(kind, q, alpha) == hs_oracle.oracle_deduce(targets[kind], c), (kind, q, alpha)


def _formula_checker(seed: int) -> workloads.FormulaChecker:
    return workloads.FormulaChecker(kbgen.planted_theory(random.Random(seed), 40, 300, gadgets=2))


def test_verifier_flags_flipped_answer():
    checker = _formula_checker(0)
    t = checker.t
    four, (head,) = t.gadgets[0]
    q = (four, (head,))
    pq = PlannedQuery("exterior-formula", 1, q, checker.truth("exterior", q, 1))
    assert pq.expected
    assert workloads.check_answer(checker, pq, True, None) == []
    assert "oracle" in workloads.check_answer(checker, pq, False, None)


def test_verifier_flags_bogus_witness():
    checker = _formula_checker(1)
    t = checker.t
    on = [i for i in range(1, t.n + 1) if t.planted >> (i - 1) & 1]
    q = ((on[0],), ())  # falsified by the planted model: NO on every route
    for route, alpha in (("entails", 0), ("interior-formula", 1), ("exterior-formula", 1),
                         ("envelope-formula", 2)):
        pq = PlannedQuery(route, alpha, q, False)
        assert workloads.check_answer(checker, pq, False, t.planted) == []
        # a vector that satisfies the query is no countermodel
        assert "witness" in workloads.check_answer(checker, pq, False, 0)
    # the all-ones vector falsifies q but violates the negative clauses
    pq = PlannedQuery("entails", 0, q, False)
    assert "witness" in workloads.check_answer(checker, pq, False, (1 << t.n) - 1)
    # a YES where the planted model is a countermodel is caught without the oracle
    pq = PlannedQuery("entails", 0, q, True)
    assert "planted" in workloads.check_answer(checker, pq, True, None)


def test_verifier_accepts_package_witnesses():
    import hornsafe

    checker = _formula_checker(2)
    t = checker.t
    theory = hornsafe.parse_horn_cnf(kbgen.hcnf_text(t.n, t.clauses))
    routes = {"interior-formula": hornsafe.deduce_interior_formula,
              "exterior-formula": hornsafe.deduce_exterior_formula,
              "envelope-formula": hornsafe.deduce_envelope_formula}
    seen_witness = 0
    for q in kbgen.candidates(random.Random(3), t, 80):
        c = Clause(pos=frozenset(q[1]), neg=frozenset(q[0]))
        for route, fn in routes.items():
            for alpha in range(3):
                d = fn(theory, c, alpha)
                pq = PlannedQuery(route, alpha, q, checker.truth(kbgen.route_kind(route), q, alpha))
                w = d.witness.bits if d.witness is not None else None
                seen_witness += w is not None
                assert workloads.check_answer(checker, pq, d.entailed, w) == [], (route, alpha, q)
    assert seen_witness > 50


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail(list(range(1000))) == (99, 989)
    assert workloads.tail(list(range(100))) == (90, 89)
    assert workloads.tail(list(range(40))) == (75, 29)
    assert workloads.tail(list(range(35))) == (70, 24)
    assert workloads.tail(list(range(10))) == (50, 4.5)

