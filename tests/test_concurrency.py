"""Queries are pure functions over immutable inputs: many threads hammering
one shared theory/charset must reproduce the single-threaded answers."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from hornsafe import (
    characteristic_set,
    charset_entails,
    deduce_envelope_charset,
    deduce_envelope_formula,
    deduce_exterior_charset,
    deduce_exterior_formula,
    deduce_interior_charset,
    deduce_interior_formula,
    entails,
    parse_horn_cnf,
    random_horn,
    serialize_horn_cnf,
)
from hornsafe.oracle import all_models
from conftest import FORMULA_ROUTES, planted_horn, random_query_clause


def test_parallel_queries_are_deterministic():
    rng = random.Random(314159)
    theory = random_horn(9, 14, 4, seed=rng.getrandbits(48))
    charset = characteristic_set(all_models(theory))
    jobs = []
    for _ in range(120):
        clause = random_query_clause(9, rng)
        alpha = rng.randint(0, 4)
        jobs.append((clause, alpha))

    def run_all(job):
        clause, alpha = job
        return (
            entails(theory, clause).entailed,
            charset_entails(charset, clause).entailed,
            deduce_interior_formula(theory, clause, alpha).entailed,
            deduce_interior_charset(charset, clause, alpha).entailed,
            deduce_exterior_formula(theory, clause, alpha).entailed,
            deduce_exterior_charset(charset, clause, alpha).entailed,
            deduce_envelope_formula(theory, clause, alpha).entailed,
            deduce_envelope_charset(charset, clause, alpha).entailed,
        )

    sequential = [run_all(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(run_all, jobs))
    assert parallel == sequential


def test_parallel_first_use_on_a_fresh_theory():
    """Threads race on the first propagation-index build of a freshly parsed
    theory: no thread may see a half-built index, so every answer matches a
    sequential run on a separate parse."""
    rng = random.Random(271828)
    n = 40
    text = serialize_horn_cnf(planted_horn(n, 600, 4, seed=rng.getrandbits(48)))
    jobs = [(random_query_clause(n, rng), rng.randint(0, 3)) for _ in range(16)]

    def run_all(theory, clause, alpha):
        return [(d.entailed, d.witness, d.trace)
                for d in (route(theory, clause, alpha) for route in FORMULA_ROUTES)]

    reference = parse_horn_cnf(text)
    sequential = [run_all(reference, *job) for job in jobs]
    workers = 8
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            theory = parse_horn_cnf(text)
            start = threading.Barrier(workers)

            def worker(offset):
                start.wait(timeout=30)
                return [(k, run_all(theory, *jobs[k]))
                        for k in range(offset, len(jobs), workers)]

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(worker, w) for w in range(workers)]
                results = dict(pair for f in futures for pair in f.result(timeout=60))
            assert [results[k] for k in range(len(jobs))] == sequential
    finally:
        sys.setswitchinterval(old_interval)
