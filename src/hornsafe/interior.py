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
  the theory size up to bookkeeping, and each query pays only its own part.
  Both parts live in :mod:`hornsafe.engine` and run ``engine._derive``,
  the package's one counter-propagation loop, which at alpha = 0 is the
  unit propagation of :meth:`~hornsafe.engine.HornPropagator.minimal_model`;
* :func:`deduce_interior_charset` answers the same query from a
  characteristic-model representation by scanning the neighborhood of the
  minimal falsifying vector in fixed numpy chunks of vectors, in
  O(n^(alpha+2) |charset|): a vector is first tested against at most n
  witness members, which prove most vectors models, and only the rest
  against the whole charset; each restart uses every non-model of the
  block of vectors where the scan stopped.
"""

from __future__ import annotations

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
    NEIGHBORHOOD_CAP,
    Term,
    _ball_size,
    _bit_rows,
    _check_alpha,
    _check_query,
    mask_indices,
)
from .engine import _and_above, _and_above_rows, _base_query

#: Default ceiling on materialised subclauses / terms.
EXPANSION_CAP = 1 << 20


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
    alpha = _check_alpha(alpha)
    lits = c.literals()
    size = len(lits)
    if alpha >= size:
        return ClauseInterior(cnf=(Clause(),), dnf=())
    expected = max(comb(size, alpha), comb(size, alpha + 1))
    if expected > cap:
        raise EnumerationLimitError(
            f"clause interior needs {expected} subsets (cap {cap})", needed=expected, cap=cap
        )
    dnf = tuple(
        Term(
            pos=frozenset(l for l in pick if l > 0),
            neg=frozenset(-l for l in pick if l < 0),
        )
        for pick in combinations(lits, alpha + 1)
    )
    return ClauseInterior(cnf=_subclauses(c, alpha), dnf=dnf)


def _subclauses(c: Clause, alpha: int) -> tuple[Clause, ...]:
    """The CNF of the alpha-interior of ``c``: its subclauses keeping ``|c|
    - alpha`` literals, which is the empty clause alone when alpha >= |c|."""
    lits = c.literals()
    return tuple(map(Clause.from_literals, combinations(lits, max(0, len(lits) - alpha))))


def interior_cnf(t: HornTheory, alpha: int, cap: int = EXPANSION_CAP) -> HornTheory:
    """Horn CNF whose models are exactly the alpha-interior of ``t``.

    Subclauses of Horn clauses stay Horn, so the expansion is again a
    HornTheory; it may contain the empty clause (inconsistent interior).
    The clauses to build, C(|c|, alpha) per clause c, or 1 when alpha >=
    |c|, are counted against ``cap`` before any is built; that is the only
    cap applied, and no clause's DNF is built.
    """
    alpha = _check_alpha(alpha)
    total = sum(comb(len(c), alpha) or 1 for c in t.clauses)  # comb is 0 when alpha > |c|
    if total > cap:
        raise EnumerationLimitError(
            f"interior CNF needs {total} clauses (cap {cap})", needed=total, cap=cap
        )
    return HornTheory(t.n, tuple(d for c in t.clauses for d in _subclauses(c, alpha)))


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

    * the base (:func:`~hornsafe.engine.interior_base`): F0, its
      derivation order and the counters at F0, derived once per theory and
      alpha on the first query at that alpha and kept on the theory's
      shared propagation index (:func:`~hornsafe.engine.propagator`).  When the
      base derivation itself meets a YES condition the alpha-interior is
      inconsistent and every query is answered YES.
    * the extension, per query: P(c) meeting F0 answers YES; otherwise only
      the variables of N(c) outside F0, and the heads they force, lower
      counters.  ``engine._derive`` keeps the lowered ones in a dict of
      the query's own and reads the others from the base counters, which
      it never writes.  A NO witness is F0 | N(c) | the added heads.

    Cost: the first query at an alpha is O(theory size); later ones are
    O(|c| + the occurrences of the variables newly put into N), besides
    copying F0's n + 1 positions and its derivation into the trace.
    Candidate clauses are kept in a heap keyed by input position, adding a
    log factor to both.  Base and extension live in :mod:`hornsafe.engine`
    (:func:`~hornsafe.engine._base_query`), where
    :func:`~hornsafe.engine.entails` is this query at alpha = 0 without
    the trace and :meth:`~hornsafe.engine.HornPropagator.minimal_model`
    grows its least models from the alpha = 0 base.

    The trace is the base derivation ``order[:cut]`` with the positions of
    N(c)'s variables deleted, then the query's own derivation, cut where
    YES fired.  ``cut`` is the position of the base derivation's first
    variable in P(c) when P(c) meets F0 (a YES), else its whole length.
    """
    return _base_query(t, c, alpha, traced=True)


#: An alpha-ball scan returns the non-models of a block of _ROWS vectors and
#: tests it in chunks of _ROWS vectors, fewer (one at least) where rows x
#: members would pass _CHUNK_WORDS words.  At n = 60 and about 600 members,
#: 256-row chunks ran no faster than 128 and held more memory.
_ROWS, _CHUNK_WORDS = 128, 1 << 17


def _ball_flips(n: int, alpha: int, size: int) -> np.ndarray:
    """The ``size`` masks of :func:`~hornsafe.core.iter_flip_masks`, in its
    order, as one ``uint64`` array built by flip-set size: the sets of size
    k + 1 are those of size k, in order, each with one more position above
    its highest, ascending."""
    flips = np.zeros(size, np.uint64)
    lo, hi = 1, n + 1
    bits = flips[lo:hi]  # the one-position sets (none at alpha = 0) double as the bit table
    np.left_shift(np.uint64(1), np.arange(bits.size, dtype=np.uint64), out=bits)
    low = np.arange(1, n + 1)  # per set of the layer: the lowest position it may add
    while hi < size:
        counts = n - low
        pos = np.arange(counts.sum())  # each parent's children add low, low + 1, ..., n - 1
        pos -= np.repeat(np.cumsum(counts) - counts - low, counts)
        layer = flips[hi:hi + pos.size]
        np.take(bits, pos, out=layer)
        layer |= np.repeat(flips[lo:hi], counts)
        lo, hi, low = hi, hi + pos.size, pos + 1
    return flips


class _BallScan:
    """The alpha-ball scans of one query over the characteristic members
    ``arr``, one per restart.  The ball's flip masks and the members' zero
    bits are built on first need and kept for the query's later restarts."""

    def __init__(self, arr: np.ndarray, n: int, alpha: int, size: int):
        self.arr, self.n, self.alpha, self.size = arr, n, alpha, size
        self.flips: Optional[np.ndarray] = None
        self.zeros: Optional[np.ndarray] = None  # (n, members): bit j of member k is off
        self.zero_counts: Optional[np.ndarray] = None  # per member: its zeros

    def witnesses(self, vstar: int) -> np.ndarray:
        """For each variable j, the member with j off that has the fewest
        zeros inside ``vstar``, then the fewest zeros (first on ties); the
        first member in that order stands in for a j that no member has
        off.  Any members would be correct: the choice only decides how
        many vectors the witness test settles."""
        arr, n = self.arr, self.n
        if self.zeros is None:
            self.zeros = _bit_rows(arr, n).T == 0
            self.zero_counts = self.zeros.sum(axis=0)
        zeros = self.zeros
        inside = np.fromiter(mask_indices(vstar), np.intp) - 1
        order = np.argsort((n + 1) * zeros[inside].sum(axis=0) + self.zero_counts, kind="stable")
        return arr[order[zeros[:, order].argmax(axis=1)]]

    def first_non_models(self, vstar: int) -> list[tuple[int, Optional[int]]]:
        """Every vector v = ``vstar ^ f`` that is not a model, f in flip
        order, in the first block of _ROWS vectors past ``vstar`` itself
        that holds one, each with the AND of the members above v (None when
        there are none); empty when every vector of the ball is a model.

        A block is tested in chunks of at most _ROWS rows and _CHUNK_WORDS
        words (one row at least); the blocks, not the chunks, decide what
        is returned.  Each chunk is first tested against the witnesses of
        ``vstar``: a row whose witnesses above it AND to exactly the row is a
        model.  The other rows get the exact test, against the members with a still-set
        bit off, or against every member when some row has no witness above
        it.
        """
        arr, vs = self.arr, np.uint64(vstar)
        rows = max(1, min(_ROWS, _CHUNK_WORDS // arr.size))
        wit = None
        found: list[tuple[int, int, bool]] = []
        for block in range(1, self.size, _ROWS):
            end = min(block + _ROWS, self.size)
            for lo in range(block, end, rows):
                if self.flips is None:
                    self.flips = _ball_flips(self.n, self.alpha, self.size)
                chunk = self.flips[lo:min(lo + rows, end)] ^ vs
                if wit is None:
                    wit = self.witnesses(vstar)
                w, above = _and_above_rows(wit, chunk)
                unsure = (w != chunk) | ~above
                if not unsure.any():
                    continue
                rest = chunk[unsure]
                if above[unsure].all():
                    # Here w is the AND of the row's witnesses.  A member
                    # >= v with every bit of w \ v on contains w, so only
                    # the others can clear those bits.
                    need = np.bitwise_or.reduce(w[unsure] & ~rest)
                    w[unsure] &= _and_above_rows(arr[(arr & need) != need], rest)[0]
                else:
                    w[unsure], above[unsure] = _and_above_rows(arr, rest)
                # At n = 64 the all-ones vector with no member above it would
                # meet the fill value, hence the explicit test.
                bad = (w != chunk) | ~above
                if bad.any():
                    found += zip(chunk[bad].tolist(), w[bad].tolist(), above[bad].tolist())
            if found:
                break
        return [(v, x if a else None) for v, x, a in found]


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
    query (N true, initially N(c)).  When v* is not a model it is the
    restart's only vector v.  Otherwise the restart walks the alpha-ball of
    v* in deterministic order (flip sets by ascending size, then
    lexicographic), cut into blocks of 128 vectors past v*, and takes every
    non-model v of the first block that holds one, in flip order.  Each v
    is compared with the minimal model above it:

    * no member above v at all: every superset literal is vacuously implied,
      which we encode as J = all indices;
    * otherwise J = ON(min model above v) \\ ON(v), the indices the base
      theory forces on top of v.

    The first J meeting P(c) or the restart's N answers YES; otherwise N
    grows by the union of the restart's J's and the scan restarts.  A
    fully-verified neighborhood answers NO with v* as witness.  The vectors
    v taken along the way, up to the one that answered YES, are recorded in
    the trace; together they certify the YES answer.  The per-restart
    neighborhood size is guarded by ``cap``.

    Cost.  v is a model iff some member is above it and the AND of the
    members above it is v (Kautz, Kearns & Selman, 1993).  Each restart
    tests v* with one pass over the members.  Only when v* is a model is
    the rest of the ball, B = sum_{i <= alpha} C(n, i) vectors, scanned a
    block at a time, each block in chunks of at most 128 vectors: each
    chunk costs a few numpy passes over chunk x members words, with no
    Python work per vector.  Each chunk is first tested against the
    witnesses of v*: for each variable j, the member with j off that has
    the fewest zeros inside v*, then the fewest zeros overall.  A vector
    whose witnesses above it AND to exactly it is a model, since the AND
    of all members above it lies between it and the AND of any nonempty
    subset of them.
    Only the other vectors get the exact test.  With w0 the AND of the
    witnesses above v, a member above v with every bit of w0 \\ v on
    contains w0, so w = w0 AND the members above v with such a bit off; a
    chunk keeps the members with a bit of the union of these sets off, or
    all members when some vector has no witness above it.
    Certified vectors are models, so the non-models of a block and their
    w are those of the full test.  A restart thus costs O(|charset|) when
    v* is not a model and O(B |charset|) words at worst, testing at most
    127 vectors past its first non-model; at most n + 1 balls are scanned.
    At n = 60 and about 600 members, the witnesses are about 60 members and
    prove about 70 % of the vectors past the first chunk models; an alpha = 2 NO answer
    makes about 10 restarts, each but the last taking 2.3 to 2.6 non-models
    on average.
    Memory: a chunk has at most 128 rows and at most max(1, 2^17 //
    |charset|), so each of its temporaries holds max(2^17, |charset|) words
    at most (1 MiB below 2^17 members); which chunks a block is cut into
    changes no answer and no trace.  The ball's flip masks, B words (about
    3 B while building, in O(B) time), and the members' zero bits,
    n |charset| bytes, are built once per query, on first need; a query
    whose every v* is not a model builds neither.  The witnesses take n
    words per restart.

    Why this is right.  Invariant: every interior model u falsifying c
    contains N; it holds for N = N(c).  Each v of a restart is
    v = (v* \\ D) | U with D inside N, U outside N and |D| + |U| <= alpha.
    Then u' = (u \\ D) | U is within alpha of u, hence a model, and
    u' >= v.  With no model above v no such u exists (YES).  Otherwise
    u' >= w, the minimal model above v, so J = w \\ v lies in u'.  If J
    meets N it meets D, which u' has off: no such u (YES).  Else J misses
    D | U, where u' agrees with u, so u >= J: J meeting P(c) contradicts u
    falsifying c (YES).  The argument uses only the restart's N, so it
    holds for each v of the restart alone: the first J that meets N or
    P(c) answers YES, and otherwise every u contains each J, so the
    invariant holds for N grown by their union.  YES is tested against the
    restart's N only: the J's before it lie in u' too, so meeting them
    proves nothing.  J is nonempty (v is not a model), so N grows strictly: at
    most n restarts.  NO: the whole ball of v* is models, so v* is an
    interior model; it contains N(c) and misses P(c), because N never
    meets P(c).  By the invariant it is the least interior model
    falsifying c, whichever non-models the restarts took.
    """
    n = charset.n
    alpha = _check_query(c, alpha, n)
    if not len(charset):
        return Decision(True)
    size = _ball_size(n, alpha)
    if size > cap:
        raise EnumerationLimitError(
            f"alpha={alpha} neighborhood at n={n} exceeds the cap of {cap} vectors",
            needed=size, cap=cap,
        )
    arr = charset.bits_array
    ball = _BallScan(arr, n, alpha, size)
    vstar = c.neg_mask  # exactly N true
    trace: list[Model] = []
    for _ in range(n + 1):
        w = _and_above(arr, vstar)
        found = ball.first_non_models(vstar) if w == vstar else [(vstar, w)]
        if not found:
            return Decision(False, witness=Model(n, vstar), trace=tuple(trace))
        grown = vstar
        for v, w in found:
            trace.append(Model(n, v))
            # Nothing above v: all superset literals implied.
            jmask = (1 << n) - 1 if w is None else w & ~v
            if jmask & (vstar | c.pos_mask):
                return Decision(True, trace=tuple(trace))
            grown |= jmask
        vstar = grown
    raise RuntimeError("charset interior scan exceeded its n-restart bound")
