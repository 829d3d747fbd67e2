"""Deduction for alpha-interiors of Horn knowledge bases.

The alpha-interior keeps exactly the models whose whole alpha-neighborhood
satisfies the base, so a query entailed by it is robust against up to alpha
wrong bits in a model.  Constructing the interior explicitly is exponential,
but deduction against it is not:

* :func:`clause_interior` expands a single clause into the equivalent
  CNF/DNF over its literal subsets (interiors of clauses are small and
  explicit);
* :func:`deduce_interior_formula` answers ``interior(t, alpha) |= c``
  directly from the clause list by growing the negative side of the query
  until one of two terminal conditions fires; the query-independent part
  of that growth is derived once per theory and alpha, in time linear in
  the theory size up to bookkeeping, and each query pays only its own part;
* :func:`deduce_interior_charset` answers the same query from a
  characteristic-model representation by scanning the neighborhood of the
  minimal falsifying vector in numpy chunks of vectors, in
  O(n^(alpha+2) |charset|).
"""

from __future__ import annotations

import heapq
from array import array
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
    Term,
    _check_query,
    index_mask,
    iter_flip_masks,
    mask_indices,
)
from .engine import HornPropagator, _and_above, propagator

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


class InteriorBase(NamedTuple):
    """The query-independent part of alpha-interior deduction on one theory.

    F0 is the closure of the empty set under the alpha-rule of
    :func:`deduce_interior_formula` (no query literals).  ``order`` lists F0
    in derivation order, ``inside`` maps each variable ``0..n`` to its
    1-based position in ``order`` (0 outside F0) and ``mask`` packs F0.
    ``counters`` holds |N(d) \\ F0| per clause id at the fixpoint; it is
    None when the build met a YES condition, which means the alpha-interior
    is inconsistent and entails every clause (``order`` then stops where
    YES fired).
    """

    order: tuple[int, ...]
    inside: array
    mask: int
    counters: Optional[list[int]]


def build_interior_base(prop: HornPropagator, alpha: int) -> InteriorBase:
    """Derive F0 from N = {} and P = {}: the clauses whose body has at most
    alpha literals are active before any variable is derived."""
    counters = prop.body_sizes.copy()
    inside = array("i", [0]) * (prop.n + 1)
    order: list[int] = []
    active = [k for k, size in enumerate(counters) if size <= alpha]
    if _derive(prop, alpha, frozenset(), inside, counters, active, 0, order):
        counters = None
    return InteriorBase(tuple(order), inside, index_mask(order), counters)


def interior_base(prop: HornPropagator, alpha: int) -> InteriorBase:
    """The :class:`InteriorBase` of ``prop`` at ``alpha``: built on the first
    interior query at that alpha, then kept in ``prop.interior_bases``.

    A base is published only once fully built; threads racing on the first
    query may each build one, and either serves.
    """
    try:
        return prop.interior_bases[alpha]
    except KeyError:
        base = build_interior_base(prop, alpha)
        prop.interior_bases[alpha] = base
        return base


class _Overlay(dict):
    """One query's changed counters over the base counters, which it never writes."""

    __slots__ = ("base",)

    def __init__(self, base: list[int]):
        super().__init__()
        self.base = base

    def __missing__(self, k: int) -> int:
        return self.base[k]


def _derive(prop, alpha, pset, inside, counts, ids, step, trace) -> bool:
    """Grow N (the variables with ``inside[i]`` nonzero) to its fixpoint
    under the alpha-rule; True when a YES condition holds.

    ``counts[k]`` is the counter |N(d) \\ N| of clause id k.  The clause ids
    in ``ids`` have their counter lowered by ``step`` first (0 only
    re-checks it).  While some clause has counter alpha and a head outside
    N, the first such clause in input order puts its head j into ``trace``
    and N, with ``inside[j]`` set to the new length of ``trace``.  YES
    holds as soon as a counter falls below alpha, or is alpha with no head
    or the head in ``pset``.
    """
    heads, occ = prop.heads, prop.occ
    candidates: list[int] = []  # heap of clause ids whose counter is alpha
    rounds = 0
    while True:
        for k in ids:
            cnt = counts[k] - step
            counts[k] = cnt
            if cnt < alpha:
                return True
            if cnt == alpha:
                h = heads[k]
                if h == 0 or h in pset:
                    return True
                if not inside[h]:
                    heapq.heappush(candidates, k)
        while candidates:
            j = heads[heapq.heappop(candidates)]
            if not inside[j]:
                break
        else:
            return False
        trace.append(j)
        inside[j] = len(trace)
        rounds += 1
        if rounds > prop.n:
            raise RuntimeError("interior deduction exceeded its n-round bound")
        ids, step = occ.get(j, ()), 1


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

    Step 3 is monotone in N and so are both YES conditions, so the answer
    only depends on the fixpoint Cl(N(c)) = Cl(N(c) | F0), where F0 = Cl({})
    is the same for every query.  The work is therefore split in two:

    * the base (:func:`interior_base`): F0, its derivation order and the
      counters at F0, derived once per theory and alpha on the first
      interior query at that alpha and kept on the theory's shared
      propagation index (:func:`~hornsafe.engine.propagator`).  When the
      base derivation itself meets a YES condition the alpha-interior is
      inconsistent and every query is answered YES.
    * the extension, per query: P(c) meeting F0 answers YES; otherwise only
      the variables of N(c) outside F0, and the heads they force, lower
      counters, kept in a small overlay over the base counters.  A NO
      witness is F0 | N(c) | the added heads.

    Cost: the first query at an alpha is O(theory size); later ones are
    O(|c| + the occurrences of the variables newly put into N), besides
    copying F0's n + 1 positions and its derivation into the trace.
    Candidate clauses are kept in a heap keyed by input position, adding a
    log factor to both.

    The trace is the base derivation without the variables of N(c), then
    the query's own derivation, cut where YES fired: a YES from P(c)
    meeting F0 cuts the base derivation before its first variable in P(c).
    """
    _check_query(c, alpha, t.n)
    prop = propagator(t)
    base = interior_base(prop, alpha)
    order, inside = base.order, base.inside
    # The base derivation, cut before its first variable in P(c), without N(c).
    cut = min((inside[p] - 1 for p in c.pos if inside[p]), default=len(order))
    trace: list[int] = []
    start = 0
    for skip in sorted(inside[i] - 1 for i in c.neg if inside[i]):
        if skip >= cut:
            break
        trace.extend(order[start:skip])
        start = skip + 1
    trace.extend(order[start:cut])
    if cut < len(order) or base.counters is None:
        return Decision(True, trace=tuple(trace))

    fresh = [i for i in c.neg if not inside[i]]
    inside = inside[:]
    for i in fresh:
        inside[i] = 1
    met = [k for i in fresh for k in prop.occ.get(i, ())]
    known = len(trace)
    if _derive(prop, alpha, c.pos, inside, _Overlay(base.counters), met, 1, trace):
        return Decision(True, trace=tuple(trace))
    witness = base.mask | c.neg_mask | index_mask(trace[known:])
    return Decision(False, witness=Model(t.n, witness), trace=tuple(trace))


#: Chunks of an alpha-ball scan: the first has _FIRST_ROWS vectors and each
#: next one twice as many, up to _MAX_ROWS; a chunk has fewer rows (one at
#: least) where its rows x members temporaries would pass _CHUNK_WORDS
#: 8-byte words.  At n = 60 and about 600 members, 256-row chunks ran no
#: faster than 128-row ones and held more memory.
_FIRST_ROWS, _MAX_ROWS, _CHUNK_WORDS = 64, 128, 1 << 17
#: Flip-mask arrays of balls up to _FLIP_CACHE_BALL vectors are kept for the
#: last _FLIP_CACHE_SIZE (n, alpha) pairs, at most 4 MiB; larger ones are
#: built per query.
_FLIP_CACHE_BALL, _FLIP_CACHE_SIZE = 1 << 16, 8
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _build_flip_masks(n: int, alpha: int, size: int) -> np.ndarray:
    flips = np.fromiter(iter_flip_masks(n, alpha), np.uint64, count=size)
    flips.flags.writeable = False
    return flips


_cached_flip_masks = lru_cache(maxsize=_FLIP_CACHE_SIZE)(_build_flip_masks)


def _flip_masks(n: int, alpha: int, size: int) -> np.ndarray:
    """The ``size`` masks of :func:`~hornsafe.core.iter_flip_masks` as a
    read-only ``uint64`` array, in its order (the empty flip first)."""
    build = _cached_flip_masks if size <= _FLIP_CACHE_BALL else _build_flip_masks
    return build(n, alpha, size)


def _first_non_model(
    arr: np.ndarray, flips: np.ndarray, vstar: int
) -> Optional[tuple[int, Optional[int]]]:
    """The first vector v = ``vstar ^ f``, f in ``flips`` order, that is not
    a model of the theory whose characteristic members are ``arr``, with the
    AND of the members above v (None when there are none); None when every
    vector is a model.  v is a model iff some member is >= v and the AND of
    those members is v.  ``flips[0]`` is the empty flip."""
    w = _and_above(arr, vstar)
    if w != vstar:
        return vstar, w
    vs = np.uint64(vstar)
    rows_cap = max(1, min(_MAX_ROWS, _CHUNK_WORDS // arr.size))
    lo, rows = 1, min(_FIRST_ROWS, rows_cap)
    while lo < flips.size:
        chunk = flips[lo:lo + rows] ^ vs
        col = chunk[:, None]
        hit = (arr & col) == col
        w = np.bitwise_and.reduce(np.where(hit, arr, _ONES), axis=1)
        # At n = 64 the all-ones vector with no member above it would meet
        # the fill value, hence the explicit test.
        bad = (w != chunk) | ~hit.any(axis=1)
        if bad.any():
            i = bad.argmax()
            return int(chunk[i]), int(w[i]) if hit[i].any() else None
        lo += rows
        rows = min(2 * rows, rows_cap)
    return None


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
    restarts.  A fully-verified neighborhood answers NO with v* as witness.
    The vectors v found along the way are recorded in the trace; together
    they certify the YES answer.  The per-restart neighborhood size is
    guarded by ``cap``.

    Cost.  v is a model iff some member is above it and the AND of the
    members above it is v (Kautz, Kearns & Selman, 1993).  Each restart
    tests v* with one pass over the members, then the rest of the ball,
    B = sum_{i <= alpha} C(n, i) vectors, in chunks of 64, then 128
    vectors: each chunk costs a few numpy passes over chunk x |charset|
    words, with no Python work per vector.  A restart thus costs
    O(|charset|) when v* is not a model and O(B |charset|) words at worst,
    evaluating at most 127 vectors past its culprit; at most n + 1 balls
    are scanned.
    Memory: a chunk has at most 128 rows and at most max(1, 2^17 //
    |charset|), so each of its temporaries holds max(2^17, |charset|) words
    at most (1 MiB below 2^17 members).  The ball's flip masks are one
    ``uint64`` array of B words, built once per query; those of balls up to
    2^16 vectors are kept for the last 8 (n, alpha) pairs in use, 4 MiB in
    all at most.

    Why this is right.  Invariant: every interior model u falsifying c
    contains N; it holds for N = N(c).  At a restart v = (v* \\ D) | U with
    D inside N, U outside N and |D| + |U| <= alpha.  Then u' = (u \\ D) | U
    is within alpha of u, hence a model, and u' >= v.  With no model above
    v no such u exists (YES).  Otherwise u' >= w, the minimal model above
    v, so J = w \\ v lies in u'.  If J meets N it meets D, which u' has
    off: no such u (YES).  Else J misses D | U, where u' agrees with u, so
    u >= J: J meeting P(c) contradicts u falsifying c (YES), and otherwise
    the invariant holds for N | J.  J is nonempty (v is not a model), so N
    grows strictly: at most n restarts.  NO: the whole ball of v* is
    models, so v* is an interior model; it contains N(c) and misses P(c),
    because N never meets P(c).
    """
    n = charset.n
    _check_query(c, alpha, n)
    if not len(charset):
        return Decision(True)
    size = sum(comb(n, i) for i in range(min(alpha, n) + 1))
    if size > cap:
        raise EnumerationLimitError(
            f"alpha={alpha} neighborhood at n={n} exceeds the cap of {cap} vectors"
        )
    arr = charset.bits_array
    flips = _flip_masks(n, alpha, size)
    full = (1 << n) - 1
    nset = set(c.neg)
    pos_mask = c.pos_mask
    trace: list[Model] = []
    restarts = 0
    while True:
        vstar = index_mask(nset)
        found = _first_non_model(arr, flips, vstar)
        if found is None:
            return Decision(False, witness=Model(n, vstar), trace=tuple(trace))
        v, w = found
        trace.append(Model(n, v))
        # Nothing above v: all superset literals implied.
        jmask = full if w is None else w & ~v
        if jmask & vstar or jmask & pos_mask:  # vstar is exactly the N mask
            return Decision(True, trace=tuple(trace))
        nset |= mask_indices(jmask)
        restarts += 1
        if restarts > n:
            raise RuntimeError("charset interior scan exceeded its n-restart bound")
