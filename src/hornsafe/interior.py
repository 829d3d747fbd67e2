"""Deduction for alpha-interiors of Horn knowledge bases.

The alpha-interior keeps exactly the models whose whole alpha-neighborhood
satisfies the base, so a query entailed by it is robust against up to alpha
wrong bits in a model.  Constructing the interior explicitly is exponential,
but deduction against it is not:

* :func:`clause_interior` expands a single clause into the equivalent
  CNF/DNF over its literal subsets (interiors of clauses are small and
  explicit);
* :func:`deduce_interior_formula` answers ``interior(t, alpha) |= c``
  directly from the clause list, in time linear in the theory size up to
  bookkeeping, by growing the negative side of the query until one of two
  terminal conditions fires;
* :func:`deduce_interior_charset` answers the same query from a
  characteristic-model representation by scanning the neighborhood of the
  minimal falsifying vector, in O(n^(alpha+2) |charset|).
"""

from __future__ import annotations

import heapq
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
    Term,
    index_mask,
    iter_flip_masks,
    mask_indices,
)
from .engine import propagator

#: Default ceiling on materialised subclauses / terms / neighborhood vectors.
EXPANSION_CAP = 1 << 20
NEIGHBORHOOD_CAP = 1 << 22


class ClauseInterior(NamedTuple):
    """Two normal forms of the alpha-interior of one clause."""

    cnf: tuple[Clause, ...]
    dnf: tuple[Term, ...]


def clause_interior(c: Clause, alpha: int, cap: int = EXPANSION_CAP) -> ClauseInterior:
    """Alpha-interior of a single clause, as CNF and DNF.

    CNF: every subclause of ``c`` keeping ``|c| - alpha`` literals.
    DNF: every conjunction of ``alpha + 1`` literals of ``c``.
    When ``alpha >= |c|`` the interior is unsatisfiable: the CNF collapses to
    the single empty clause and the DNF has no terms.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    lits = c.literals()
    size = len(lits)
    if alpha >= size:
        return ClauseInterior(cnf=(Clause(),), dnf=())
    expected = max(comb(size, alpha), comb(size, alpha + 1))
    if expected > cap:
        raise EnumerationLimitError(
            f"clause interior needs {expected} subsets (cap {cap})"
        )
    cnf = tuple(Clause.from_literals(keep) for keep in combinations(lits, size - alpha))
    dnf = tuple(
        Term(
            pos=frozenset(l for l in pick if l > 0),
            neg=frozenset(-l for l in pick if l < 0),
        )
        for pick in combinations(lits, alpha + 1)
    )
    return ClauseInterior(cnf=cnf, dnf=dnf)


def interior_cnf(t: HornTheory, alpha: int, cap: int = EXPANSION_CAP) -> HornTheory:
    """Horn CNF whose models are exactly the alpha-interior of ``t``.

    Subclauses of Horn clauses stay Horn, so the expansion is again a
    HornTheory; it may contain the empty clause (inconsistent interior).
    """
    out: list[Clause] = []
    for c in t.clauses:
        out.extend(clause_interior(c, alpha, cap).cnf)
    return HornTheory(t.n, tuple(out))


def deduce_interior_formula(t: HornTheory, c: Clause, alpha: int) -> Decision:
    """Decide whether the alpha-interior of ``t`` entails ``c``.

    Maintains a working negative set N (initially N(c)) and per-clause
    counters |N(d) \\ N|, and loops over three conditions:

    1. YES if some clause d has |N(d) \\ N| <= alpha - 1, or has
       |N(d) \\ N| = alpha with P(d) a subset of P(c): the interior of d
       alone then entails the query.
    2. NO if every clause d with |N(d) \\ N| = alpha has its head inside N:
       the vector with exactly N true is then an interior model falsifying
       the query; it is returned as the witness.
    3. Otherwise the first (input order) clause d with |N(d) \\ N| = alpha
       and head j outside P(c) and N forces the split query on x_j; only
       the negative branch remains open, so j joins N and the loop repeats.

    N grows each round, so there are at most n rounds.  Heads, body sizes
    and occurrence lists come from the theory's shared propagation index
    (:func:`~hornsafe.engine.propagator`, built on the first formula query
    against ``t``).  Round zero copies the body sizes as counters, walks the
    occurrence lists of N(c) and then visits only the clauses that meet
    N(c) plus those whose body has at most alpha literals: O(|c| + the
    occurrences of N(c) + the clauses of body size <= alpha), besides the
    copy.  Later counter updates also go through the occurrence lists, so
    total counter work is linear in the theory size; candidate clauses are
    kept in a heap keyed by input position, adding a log factor to the at
    most m candidate events.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if c.width > t.n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={t.n}")
    prop = propagator(t)
    heads, occ = prop.heads, prop.occ
    nset = set(c.neg)
    pset = c.pos
    trace: list[int] = []

    # Counters |N(d) \ N|; a clause missing N(c) keeps its body size, which
    # matters in round zero only when that size is at most alpha.
    counters = prop.body_sizes.copy()
    met = [k for i in nset for k in occ.get(i, ())]
    for k in met:
        counters[k] -= 1
    candidates: list[int] = []  # heap of clause ids with counter == alpha, head free
    for k in set(met).union(*prop.by_size[:alpha + 1]):
        cnt = counters[k]
        if cnt <= alpha - 1:
            return Decision(True, trace=tuple(trace))
        if cnt == alpha:
            h = heads[k]
            if h == 0 or h in pset:
                return Decision(True, trace=tuple(trace))
            if h not in nset:
                candidates.append(k)
    heapq.heapify(candidates)

    rounds = 0
    while True:
        # Steps 2/3: pick the first critical clause whose head is still free.
        chosen = -1
        while candidates:
            k = heapq.heappop(candidates)
            if heads[k] not in nset:
                chosen = k
                break
        if chosen < 0:
            # Every critical clause points back into N: the N-vector lies in
            # the interior and falsifies the query.
            return Decision(False, witness=Model(t.n, index_mask(nset)),
                            trace=tuple(trace))
        j = heads[chosen]
        nset.add(j)
        trace.append(j)
        rounds += 1
        if rounds > t.n:
            raise RuntimeError("interior deduction exceeded its n-round bound")
        for k in occ.get(j, ()):
            cnt = counters[k] - 1
            counters[k] = cnt
            if cnt <= alpha - 1:
                return Decision(True, trace=tuple(trace))
            if cnt == alpha:
                h = heads[k]
                if h == 0 or h in pset:
                    return Decision(True, trace=tuple(trace))
                if h not in nset:
                    heapq.heappush(candidates, k)


def deduce_interior_charset(
    charset: ModelSet,
    c: Clause,
    alpha: int,
    cap: int = NEIGHBORHOOD_CAP,
) -> Decision:
    """Decide whether the alpha-interior of the represented theory entails ``c``.

    ``charset`` is read as the characteristic set of a Horn theory (any
    AND-spanning subset of its models works; empty means the inconsistent
    theory).  The scan builds the minimal vector v* falsifying the current
    query, walks its alpha-neighborhood in deterministic order (flip sets by
    ascending size, then lexicographic), and for the first vector v that is
    not a model compares the minimal model above v against v:

    * no member above v at all: every superset literal is vacuously implied,
      which we encode as J = all indices;
    * otherwise J = ON(min model above v) \\ ON(v), the indices the base
      theory forces on top of v.

    J meeting N or P(c) answers YES; otherwise N grows by J and the scan
    restarts (at most n restarts).  A fully-verified neighborhood answers NO
    with v* as witness.  The vectors v found along the way are recorded in
    the trace; together they certify the YES answer.

    The per-restart neighborhood size is guarded by ``cap``.

    Note: the textbook-style derivation of the YES test only argues the
    case J meeting N(c) or P(c); the procedure applies it to the grown set
    N, which the fuzz suite validates against the enumeration oracle.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    n = charset.n
    if c.width > n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={n}")
    if not len(charset):
        return Decision(True)
    if sum(comb(n, i) for i in range(min(alpha, n) + 1)) > cap:
        raise EnumerationLimitError(
            f"alpha={alpha} neighborhood at n={n} exceeds the cap of {cap} vectors"
        )
    arr = charset.bits_array
    full = (1 << n) - 1
    nset = set(c.neg)
    pos_mask = c.pos_mask
    trace: list[Model] = []
    restarts = 0
    while True:
        vstar = index_mask(nset)
        culprit = None
        for f in iter_flip_masks(n, alpha):
            v = vstar ^ f
            vb = np.uint64(v)
            above = arr[arr & vb == vb]
            if above.size:
                w = int(np.bitwise_and.reduce(above))
                if w == v:
                    continue  # v is a model of the base theory
                jmask = w & ~v
            else:
                jmask = full  # nothing above v: all superset literals implied
            culprit = v
            trace.append(Model(n, v))
            break
        if culprit is None:
            return Decision(False, witness=Model(n, vstar), trace=tuple(trace))
        if jmask & vstar or jmask & pos_mask:  # vstar is exactly the N mask
            return Decision(True, trace=tuple(trace))
        nset |= mask_indices(jmask)
        restarts += 1
        if restarts > n:
            raise RuntimeError("charset interior scan exceeded its n-restart bound")
