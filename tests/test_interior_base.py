"""The formula interior route split into a per-(theory, alpha) base closure
and a per-query extension: answers equal to the enumeration oracle and to
a fresh parse, traces that are valid derivations, one base build per
alpha, inconsistent interiors recorded without counters, a safe racing
first build, bases that queries from several threads read and never write,
a first query linear in the theory size, and theories that pickle and copy
without their index and bases."""

import copy
import gc
import pickle
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import hornsafe.engine
from hornsafe import (
    Clause,
    HornTheory,
    Model,
    deduce_envelope_formula,
    deduce_exterior_formula,
    deduce_interior_formula,
    entails,
    eval_clause,
    parse_horn_cnf,
    random_horn,
    serialize_horn_cnf,
)
from hornsafe.engine import build_interior_base, interior_base, propagator
from hornsafe.oracle import all_models, interior_models, oracle_deduce
from conftest import planted_horn, random_query_clause


def layered_horn(n: int, m: int, min_body: int, seed: int) -> HornTheory:
    """A consistent random Horn theory whose bodies have at least ``min_body``
    literals, so its alpha-interiors stay consistent for small alpha and the
    base closure has work to do."""
    rng = random.Random(seed)
    planted = Model(n, rng.getrandbits(n))
    clauses = []
    for _ in range(m):
        body = rng.sample(range(1, n + 1), rng.randint(min_body, min(min_body + 2, n - 1)))
        free = [j for j in range(1, n + 1) if j not in body]
        head = {rng.choice(free)} if rng.random() < 0.85 else set()
        c = Clause(pos=frozenset(head), neg=frozenset(body))
        if eval_clause(c, planted):
            clauses.append(c)
    return HornTheory(n, tuple(clauses))


def _theories(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(4, 10)
        if k % 2:
            yield planted_horn(n, rng.randint(3, 4 * n), 4, seed=rng.getrandbits(32))
        else:
            yield layered_horn(n, rng.randint(3, 3 * n), rng.randint(1, 2),
                               seed=rng.getrandbits(32))


def _answer(d):
    return d.entailed, d.witness


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_reused_bases_match_oracle_and_fresh_parses(seed):
    rng = random.Random(seed)
    yes = no = 0
    for theory in _theories(seed, 12):
        text = serialize_horn_cnf(theory)
        shared = parse_horn_cnf(text)
        models = all_models(shared)
        for _ in range(24):
            clause, alpha = random_query_clause(shared.n, rng), rng.randint(0, 3)
            got = deduce_interior_formula(shared, clause, alpha)
            target = interior_models(models, alpha)
            assert got.entailed == oracle_deduce(target, clause)
            if not got.entailed:
                assert got.witness in target and not eval_clause(clause, got.witness)
            fresh = deduce_interior_formula(parse_horn_cnf(text), clause, alpha)
            assert _answer(got) == _answer(fresh)
            yes += got.entailed
            no += not got.entailed
    assert yes and no


def _check_trace(theory: HornTheory, clause: Clause, alpha: int, d) -> None:
    bodies: dict[int, list] = {}
    for c in theory.clauses:
        for j in c.pos:
            bodies.setdefault(j, []).append(c.neg)
    assert len(set(d.trace)) == len(d.trace)
    assert not set(d.trace) & clause.neg
    known = set(clause.neg)
    for j in d.trace:
        assert any(len(body - known) <= alpha for body in bodies.get(j, ())), (j, d.trace)
        known.add(j)
    if not d.entailed:
        assert set(d.trace) == d.witness.on_set() - clause.neg


@pytest.mark.parametrize("seed", [41, 42])
def test_traces_are_derivations(seed):
    rng = random.Random(seed)
    traced = 0
    for theory in _theories(seed, 16):
        for _ in range(30):
            clause, alpha = random_query_clause(theory.n, rng), rng.randint(0, 3)
            d = deduce_interior_formula(theory, clause, alpha)
            _check_trace(theory, clause, alpha, d)
            traced += bool(d.trace)
    assert traced


def test_one_base_build_per_alpha(monkeypatch):
    builds = []
    original = hornsafe.engine.build_interior_base

    def counting(prop, alpha):
        builds.append(alpha)
        return original(prop, alpha)

    monkeypatch.setattr(hornsafe.engine, "build_interior_base", counting)
    rng = random.Random(51)
    theory = layered_horn(12, 40, 2, seed=52)
    alphas = [rng.randint(0, 3) for _ in range(60)]
    for alpha in alphas:
        deduce_interior_formula(theory, random_query_clause(12, rng), alpha)
    assert sorted(builds) == sorted(set(alphas))
    other = parse_horn_cnf(serialize_horn_cnf(theory))
    deduce_interior_formula(other, Clause(), alphas[0])
    assert len(builds) == len(set(alphas)) + 1


@pytest.mark.parametrize("clauses, alpha", [
    ((Clause(pos={1}), Clause(pos={3}, neg={1, 2})), 1),  # a body below alpha
    ((Clause(pos={2}, neg={1}), Clause(neg={2, 3})), 2),  # a headless clause at alpha
    ((Clause(pos={2}, neg={1}), Clause(pos={3}, neg={2}), Clause(neg={3, 4})), 1),
])
def test_inconsistent_interior_keeps_no_counters(clauses, alpha):
    theory = HornTheory(4, clauses)
    assert deduce_interior_formula(theory, Clause(pos={4}), alpha).entailed
    base = interior_base(propagator(theory), alpha)
    assert base.counters is None
    assert not len(interior_models(all_models(theory), alpha))
    consistent = interior_base(propagator(theory), 0)
    assert consistent.counters is not None and len(consistent.counters) == len(clauses)


def test_parallel_first_base_build_on_a_fresh_theory():
    """Threads race on the first base builds of a freshly parsed theory: no
    thread may see a half-built base, so every answer matches a sequential
    run on a separate parse."""
    rng = random.Random(161803)
    n = 40
    text = serialize_horn_cnf(layered_horn(n, 400, 2, seed=rng.getrandbits(48)))
    jobs = [(random_query_clause(n, rng), rng.randint(0, 3)) for _ in range(32)]

    def run(theory, clause, alpha):
        d = deduce_interior_formula(theory, clause, alpha)
        return d.entailed, d.witness, d.trace

    reference = parse_horn_cnf(text)
    sequential = [run(reference, *job) for job in jobs]
    assert {entailed for entailed, _, _ in sequential} == {True, False}
    workers = 8
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            theory = parse_horn_cnf(text)
            propagator(theory)  # the race is on the bases, not on the index
            start = threading.Barrier(workers)

            def worker(offset):
                start.wait(timeout=30)
                return [(k, run(theory, *jobs[k])) for k in range(offset, len(jobs), workers)]

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(worker, w) for w in range(workers)]
                results = dict(pair for f in futures for pair in f.result(timeout=60))
            assert [results[k] for k in range(len(jobs))] == sequential
    finally:
        sys.setswitchinterval(old_interval)


def test_queries_never_write_the_base_counters():
    """Mixed queries over the cached bases from four threads: entails, the
    interior route at alpha 0-2, and the exterior and envelope routes at
    alpha 0-2, which all read a base's counters and lower their own copy;
    the alpha >= 1 probes of the last two copy the alpha = 0 base's.
    Afterwards every cached base still holds the counters of a fresh build."""
    rng = random.Random(271828)
    n = 40
    theory = layered_horn(n, 400, 3, seed=rng.getrandbits(48))  # bodies of 3+: consistent to alpha 2
    routes = [entails]
    for route in (deduce_interior_formula, deduce_exterior_formula, deduce_envelope_formula):
        routes += [lambda t, c, r=route, a=a: r(t, c, a) for a in (0, 1, 2)]
    jobs = [(rng.randrange(len(routes)), random_query_clause(n, rng)) for _ in range(400)]
    prop = propagator(theory)

    def worker(offset):
        return [(c, routes[r](theory, c)) for r, c in jobs[offset::4]]

    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [run for f in [pool.submit(worker, w) for w in range(4)] for run in f.result(timeout=60)]
    assert sorted(prop.interior_bases) == [0, 1, 2]
    for alpha, base in prop.interior_bases.items():
        assert base.counters is not None
        assert base.counters == build_interior_base(prop, alpha).counters, alpha
    assert {d.entailed for _, d in runs} == {True, False}
    # Some NO answers derived heads of their own, outside N(c).
    assert any(not d.entailed and d.witness.bits & ~c.neg_mask for c, d in runs)


def chain_horn(k: int, fillers: int, seed: int) -> HornTheory:
    """x_i = i, y_i = k + i.  At alpha = 1 the base derives x_1, ..., x_k along
    the chain ~y_i | ~x_i | x_(i+1); the filler clauses each need two y's,
    which are never derived, so they only add counter work."""
    rng = random.Random(seed)
    clauses = [Clause(pos={1}, neg={k + 1})]
    clauses += [Clause(pos={i + 1}, neg={i, k + i}) for i in range(1, k)]
    for _ in range(fillers):
        xs = rng.sample(range(1, k + 1), 3)
        ys = rng.sample(range(k + 1, 2 * k + 1), 2)
        clauses.append(Clause(pos={xs[0]}, neg=frozenset(xs[1:] + ys)))
    return HornTheory(2 * k, tuple(clauses))


def test_first_query_is_linear_in_theory_size():
    """Best of three first interior queries per size, each on a fresh index
    with no bases; the two sizes alternate so that both see the same state
    of the machine.  The timed part is what the interior route adds on
    first use (base build and extension): the index build before it is
    shared by every formula route, and its own time ratio between these
    sizes swings with how much of the theory fits in the processor cache."""
    theories = {k: chain_horn(k, 2 * k, seed=k) for k in (2_000, 20_000)}
    best = dict.fromkeys(theories, float("inf"))
    for _ in range(3):
        for k, theory in theories.items():
            fresh = HornTheory(theory.n, theory.clauses)
            propagator(fresh)
            gc.collect()
            gc.disable()  # as timeit does: a collection scans the whole heap
            try:
                t0 = time.perf_counter()
                d = deduce_interior_formula(fresh, Clause(pos={2 * k}), 1)
                best[k] = min(best[k], time.perf_counter() - t0)
            finally:
                gc.enable()
            assert not d.entailed and len(d.trace) == k
    small, large = theories[2_000], theories[20_000]
    assert large.size >= 9 * small.size
    ratio = best[20_000] / best[2_000]
    assert ratio <= 20.0, f"time ratio {ratio:.1f} exceeds 20x: {best}"
    print(f"\nfirst interior query: sizes {small.size} -> {large.size}, "
          f"ratio {ratio:.1f}x <= 20x")


def test_pickle_and_copy_leave_the_index_behind():
    t = random_horn(200, 1000, 5, seed=1)
    before = len(pickle.dumps(t))
    queries = [(Clause(pos={1}, neg={2}), 1), (Clause(neg={3}), 2), (Clause(pos={4}), 0)]
    answers = [(entails(t, c).entailed, _answer(deduce_interior_formula(t, c, a)))
               for c, a in queries]
    assert "_propagator" in vars(t)
    assert len(pickle.dumps(t)) == before
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and "_propagator" not in vars(other)
        assert [(entails(other, c).entailed, _answer(deduce_interior_formula(other, c, a)))
                for c, a in queries] == answers
        assert propagator(other) is not propagator(t)
