"""Baseline Horn machinery: satisfiability, entailment, and model-set algebra.

Two representations of the same knowledge base are served here:

* formula-based: a :class:`~hornsafe.core.HornTheory`, queried through unit
  propagation (:class:`HornPropagator`), which computes the unique minimal
  model of the theory under forced literals in time linear in the theory
  size;
* model-based: a :class:`~hornsafe.core.ModelSet` holding characteristic
  models, queried by intersecting the members above a vector.

The bridge between them is the classical fact that a model set is the model
set of some Horn theory exactly when it is closed under componentwise AND,
and that the closure of a set is regenerated from its extreme ("characteristic")
members.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import (Clause, Decision, EnumerationLimitError, HornTheory, Model, ModelSet, _bit_rows,
                   _check_query, _check_width, _member_flags, _unique, index_mask)


class HornPropagator:
    """Propagation index of one Horn theory, and unit propagation over it.

    Clauses are viewed as rules ``body -> head`` with the body being the
    negative index set; a clause with no positive literal is a pure
    constraint whose fully-true body is a conflict.  The index records, per
    clause id (input order), the head (0 when there is no positive literal)
    and the body size; and per variable, the ids of the clauses whose body
    contains it, ascending (occurrence lists).

    The one builder reads the theory's flat arrays
    (:class:`~hornsafe.core.FlatClauses`), parsed or derived from clauses:
    one sort of (variable, clause id) pairs lays out every occurrence list
    at once, as MiniSat's (Een & Sorensson, 2003).  The index keeps no
    reference to the theory, so it never holds a theory alive.  Routes
    take the index through :func:`propagator`, which builds it once per
    theory.

    Unit propagation is the alpha = 0 case of the package's one
    counter-propagation loop, :func:`_derive` in this module, which the
    alpha-interior deduction of :mod:`hornsafe.interior` runs too.  Every
    least model grows from the alpha = 0 interior base
    (:func:`interior_base`): F0, the least model of the theory, derived
    once from the clauses with an empty body.  :func:`entails` and the
    exterior and envelope formula routes at alpha = 0 query that base as
    every interior query queries its alpha's base: after the first query,
    each costs the clauses its literals touch and a copy of n + 1
    positions, with the counters it lowers in a dict over the base's,
    which :func:`_derive` reads and never writes.  Each
    :meth:`minimal_model` call, which serves the alpha >= 1 probes of those
    routes and direct callers, copies the base's m counters as well, then
    touches only the occurrence lists of the variables it sets true:
    O(theory size) at worst (Dowling & Gallier, 1984), times the log
    factor of the loop's candidate heap.  The O(m) copy stays on purpose
    for now: reading the base counters instead makes these probes several
    times faster, but perfbench keeps a record per operation, so that
    change also raises its peak memory beyond its bound until those
    records stop growing with throughput.

    ``interior_bases`` maps alpha to the query-independent part of the
    alpha-interior deduction (:class:`InteriorBase`), filled on the first
    query at that alpha; a base is published only once fully built.
    """

    def __init__(self, theory: HornTheory):
        heads, offsets, body = theory.flat
        sizes = np.diff(offsets)
        # Sorted (variable, clause id) pairs: each variable's ids, ascending.
        pairs = np.sort(body.astype(np.int64) << 32 | np.repeat(np.arange(len(heads)), sizes))
        variables = pairs >> 32
        pool = list(range(len(heads)))  # one int object per clause id, shared by the lists
        ids = list(map(pool.__getitem__, (pairs & 0xFFFFFFFF).tolist()))
        starts = np.flatnonzero(np.diff(variables, prepend=-1))
        bounds = starts.tolist() + [len(ids)]
        self.n = theory.n
        self.heads: list[int] = heads.tolist()          # 0 when the clause has no positive literal
        self.body_sizes: list[int] = sizes.tolist()
        self.occ: dict[int, list[int]] = {                # body variable -> clause ids
            v: ids[lo:hi] for v, lo, hi in zip(variables[starts].tolist(), bounds, bounds[1:])
        }
        self.interior_bases: dict = {}                   # alpha -> InteriorBase

    def minimal_model(
        self,
        forced_true: Iterable[int] = (),
        forced_false: Iterable[int] = (),
    ) -> Optional[Model]:
        """Unique minimal model of the theory with the given variables pinned.

        Returns None when the constrained theory is unsatisfiable.  F0, the
        alpha = 0 base (:func:`interior_base`), is the least model of the
        theory, and derivation is monotone, so the least model above the
        ``forced_true`` set S is Cl(F0 | S): :func:`_derive` at alpha = 0
        from the base, seeded with S, with ``forced_false`` as the YES set.
        None when the base is inconsistent, F0 or S meets ``forced_false``,
        or a clause fires with no head or a pinned-false head.
        """
        n = self.n
        falses, trues = list(forced_false), list(forced_true)
        for i in falses + trues:
            if not 1 <= i <= n:
                raise ValueError(f"forced index {i} out of range (n={n})")
        pins = set(falses)
        base = interior_base(self, 0)
        if base.counters is None or not pins.isdisjoint(trues) or any(base.inside[i] for i in pins):
            return None
        if _derive(self, 0, pins, base.inside[:], base.counters.copy(), trues, (), trues):
            return None
        return Model(n, base.mask | index_mask(trues))


def _derive(prop, alpha, pset, inside, counts, fresh, ids, trace, base=None) -> bool:
    """Put the variables of ``fresh`` into N (the variables with ``inside[i]``
    nonzero), then grow N to its fixpoint under the alpha-rule; True when a
    YES condition holds.

    The package's one counter-propagation loop, with one entry: the
    alpha-interior deduction of
    :func:`~hornsafe.interior.deduce_interior_formula` (its base,
    :func:`build_interior_base`, and each query's extension,
    :func:`_base_query`), and at alpha = 0, where the interior of a theory
    is the theory, the unit propagation of
    :meth:`HornPropagator.minimal_model` over the alpha = 0 base.

    ``counts[k]`` is the counter |N(d) \\ N| of clause id k.  Without
    ``base``, ``counts`` is a list of all m counters, written in place.
    With it, ``base`` is such a list that the loop only reads, and
    ``counts`` is a dict of the counters this call has lowered: a clause id
    not in it reads ``base[k]``, so an interior query over its cached base
    copies none of the m counters.  Each variable of ``fresh`` outside N is
    marked in ``inside``, and the counters of the clauses whose body holds
    it are lowered by one; so are the counters of the clause ids in
    ``ids``.  A clause that must be checked before any
    variable reaches it (one whose body is already within alpha, at alpha
    = 0 a fact) is seeded by raising its counter by one and passing its id
    in ``ids``.  While some clause has counter alpha and a head outside N, the
    first such clause in input order puts its head j into ``trace`` and N
    (``inside[j] = 1``) and lowers the counters of the clauses whose body
    holds j.  YES holds as soon as a counter falls below alpha, or is alpha
    with no head or the head in ``pset``.  ``fresh`` is read before
    ``trace`` is written, so they may be one list.
    """
    heads, occ = prop.heads, prop.occ
    ids = list(ids)
    for i in fresh:
        if not inside[i]:
            inside[i] = 1
            ids += occ.get(i, ())
    candidates: list[int] = []  # heap of clause ids whose counter is alpha
    rounds = 0
    while True:
        for k in ids:
            cnt = (counts[k] if base is None else counts.get(k, base[k])) - 1
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
        inside[j] = 1
        rounds += 1
        if rounds > prop.n:
            raise RuntimeError("interior deduction exceeded its n-round bound")
        ids = occ.get(j, ())


def propagator(t: HornTheory) -> HornPropagator:
    """The propagation index of ``t``: built on first use, then kept on ``t``.

    The index is stored in the theory object's own attribute dictionary, so
    the lookup goes by object identity and never through the value hash of
    :class:`~hornsafe.core.HornTheory`, which would read all three clause
    arrays on every call.  Two threads racing on the first use may each
    build one; an index is published only once fully built, and either
    serves.  Equal theories parsed separately each build their own.
    """
    try:
        return t.__dict__["_propagator"]
    except KeyError:
        prop = HornPropagator(t)
        object.__setattr__(t, "_propagator", prop)
        return prop


class InteriorBase(NamedTuple):
    """The query-independent part of alpha-interior deduction on one theory.

    F0 is the closure of the empty set under the alpha-rule of
    :func:`~hornsafe.interior.deduce_interior_formula` (no query literals).
    ``order`` lists F0 in derivation order, ``inside`` maps each variable
    ``0..n`` to its 1-based position in ``order`` (0 outside F0) and
    ``mask`` packs F0.  ``counters`` holds |N(d) \\ F0| per clause id at the
    fixpoint; it is None when the build met a YES condition, which means
    the alpha-interior is inconsistent and entails every clause (``order``
    then stops where YES fired).  At alpha = 0, F0 is the least model of
    the theory, and None means the theory is unsatisfiable.
    """

    order: tuple[int, ...]
    inside: array
    mask: int
    counters: Optional[list[int]]


def build_interior_base(prop: HornPropagator, alpha: int) -> InteriorBase:
    """Derive F0 from N = {} and P = {} with :func:`_derive`.

    The clauses whose body has at most alpha literals are active before any
    variable is derived; each is seeded with its counter raised by one and
    its id passed in ``ids``, so the loop lowers it back and checks it.
    ``inside`` is numbered with F0's positions afterwards."""
    counters = prop.body_sizes.copy()
    inside = array("i", [0]) * (prop.n + 1)
    order: list[int] = []
    active = [k for k, size in enumerate(counters) if size <= alpha]
    for k in active:
        counters[k] += 1
    if _derive(prop, alpha, frozenset(), inside, counters, (), active, order):
        counters = None
    for pos, j in enumerate(order, 1):
        inside[j] = pos
    return InteriorBase(tuple(order), inside, index_mask(order), counters)


def interior_base(prop: HornPropagator, alpha: int) -> InteriorBase:
    """The :class:`InteriorBase` of ``prop`` at ``alpha``: built on the first
    query at that alpha, then kept in ``prop.interior_bases``.

    A base is published only once fully built; threads racing on the first
    query may each build one, and either serves.
    """
    try:
        return prop.interior_bases[alpha]
    except KeyError:
        base = build_interior_base(prop, alpha)
        prop.interior_bases[alpha] = base
        return base


def _base_query(t: HornTheory, c: Clause, alpha: int, traced: bool) -> Decision:
    """:func:`~hornsafe.interior.deduce_interior_formula` with its trace
    when ``traced``, else with none: then the base derivation is not
    copied, and the query's own is kept only for the NO witness."""
    alpha = _check_query(c, alpha, t.n)
    prop = propagator(t)
    base = interior_base(prop, alpha)
    order, inside = base.order, base.inside
    # The base derivation, cut before its first variable in P(c), without N(c).
    cut = min((inside[p] - 1 for p in c.pos if inside[p]), default=len(order))
    trace = []
    if traced:
        trace = list(order[:cut])
        for skip in sorted((inside[i] - 1 for i in c.neg if 0 < inside[i] <= cut), reverse=True):
            del trace[skip]
    if cut < len(order) or base.counters is None:
        return Decision(True, trace=tuple(trace))

    known = len(trace)
    yes = _derive(prop, alpha, c.pos, inside[:], {}, c.neg, (), trace, base.counters)
    witness = None if yes else Model(t.n, base.mask | c.neg_mask | index_mask(trace[known:]))
    return Decision(yes, witness=witness, trace=tuple(trace) if traced else ())


def minimal_model(
    t: HornTheory,
    forced_true: Iterable[int] = (),
    forced_false: Iterable[int] = (),
) -> Optional[Model]:
    """:meth:`HornPropagator.minimal_model` on the shared index of ``t``."""
    return propagator(t).minimal_model(forced_true, forced_false)


def entails(t: HornTheory, c: Clause) -> Decision:
    """Decide ``t |= c`` for an arbitrary clause ``c`` (Horn or not).

    The clause fails in some model of ``t`` exactly when the theory stays
    satisfiable with N(c) pinned true and P(c) pinned false; the least
    model above N(c) is then the countermodel reported on NO.

    The 0-interior of a theory is the theory, so this is the answer and
    witness of :func:`~hornsafe.interior.deduce_interior_formula` at
    alpha = 0, from the same base query (:func:`_base_query`) without
    building its trace: the first call builds the alpha = 0 interior base
    (one propagation from the facts, kept on the index), and each call
    after it costs the clauses its literals touch, with no copy of the m
    counters that :meth:`HornPropagator.minimal_model` makes.
    """
    return _base_query(t, c, 0, traced=False)


def min_model_above(charset: ModelSet, v: Model) -> Optional[Model]:
    """AND of all charset members componentwise >= ``v``; None when there are none.

    When the charset is the characteristic set of a Horn theory, this is the
    unique minimal model of the theory above ``v``.  The empty intersection
    deliberately yields None, never the all-ones vector: no member above ``v``
    means no model above ``v``.
    """
    if v.n != charset.n:
        raise ValueError("dimension mismatch")
    w = _and_above(charset.bits_array, v.bits)
    return None if w is None else Model(charset.n, w)


def _and_above(arr: np.ndarray, bits: int) -> Optional[int]:
    """AND of the ``uint64`` members of ``arr`` that are >= ``bits``; None
    when there are none.  One pass over the members: the kernel of
    :func:`min_model_above`."""
    vb = np.uint64(bits)
    sel = arr[arr & vb == vb]
    return int(np.bitwise_and.reduce(sel)) if sel.size else None


_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _and_above_rows(members: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per vector v of ``rows``: the AND of the ``members`` >= v (all ones
    when there are none), and whether there are any.  The row-batched
    :func:`_and_above`, one pass over rows x members words."""
    col = rows[:, None]
    hit = (members & col) == col
    return _meet_rows(members, hit), hit.any(axis=1)


def _meet_rows(members: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Per row of the rows x members ``bool`` matrix ``hit``: the AND of
    the ``members`` it marks, all ones when it marks none."""
    return np.bitwise_and.reduce(np.where(hit, members, _ONES), axis=1)


def charset_entails(charset: ModelSet, c: Clause) -> Decision:
    """Decide entailment of ``c`` from a characteristic set in O(n |charset|).

    Let ``v*`` be the minimal vector falsifying ``c`` (exactly N(c) true).
    The theory entails ``c`` iff the minimal model above ``v*`` (the AND of
    the members above it, :func:`_and_above` on ``c.neg_mask``) is absent or
    satisfies ``c``; otherwise that model is the countermodel, and the only
    :class:`Model` the call builds.
    """
    _check_width(c, charset.n)
    w = _and_above(charset.bits_array, c.neg_mask)
    # w >= v*, so only a positive index of c can still satisfy it.
    if w is None or w & c.pos_mask:
        return Decision(True)
    return Decision(False, witness=Model(charset.n, w))


_BLOCK = 1 << 22  # elements per pairwise block (32 MB of uint64)

#: Ceiling on the members :func:`intersection_closure` may produce: the model
#: count at the CLI's n <= 24, so no set the CLI accepts reaches it.  Also
#: the largest cube (2^n) whose members the closure and the closure check
#: may flag in a 2^n-byte array instead of sorting them.
CLOSURE_CAP = 1 << 24

#: Cubes of at most this many vectors (64 KiB of flags) always get a flag
#: table under :data:`CLOSURE_CAP`; a larger cube gets one only when the
#: lookups it serves number at least 2^n / :data:`_TABLE_SHARE`.  At n = 24
#: a reused 16 MiB table costs 0.8 ms to clear, about what sorting 25,000
#: products for ``np.isin`` costs.
_TABLE_FLOOR = 1 << 16
_TABLE_SHARE = 512


def _flag_table(arr: np.ndarray, n: int, lookups: int) -> Optional[np.ndarray]:
    """The 2^n-byte flag table of ``arr`` (:func:`~hornsafe.core._member_flags`)
    when 2^n is at most :data:`CLOSURE_CAP` (read at call time) and the
    table pays for itself over ``lookups`` lookups, else None: the caller
    sorts instead."""
    if 1 << n <= min(CLOSURE_CAP, max(_TABLE_FLOOR, lookups * _TABLE_SHARE)):
        return _member_flags(arr, n)
    return None


def intersection_closure(ms: ModelSet) -> ModelSet:
    """Smallest superset of ``ms`` closed under componentwise AND.

    Semi-naive evaluation: ``closed`` and the first frontier are the
    distinct members (the generators); each round ANDs only the frontier
    with the generators, and the products not yet in ``closed`` become the
    next frontier.  Every element of the closure is the AND of some k
    generators, hence is reached by round k, and each element is ANDed with
    the generators once: O(|closure| x |generators|) pairs in blocks of
    :data:`_BLOCK`.

    Each round starts by asking :func:`_flag_table` for a 2^n-byte ``seen``
    flag array of ``closed``, until one is built, with the round's
    |frontier| x |generators| products as its lookups.  With ``seen``
    (2^n at most :data:`CLOSURE_CAP`), each block's products are filtered
    through it by ``intp`` lookup, and only the new ones are sorted and
    flagged, so no two blocks of a round yield the same product; the
    closure, a subset of the 2^n vectors, cannot pass the cap.  Without
    it, each block's products are sorted and tested against ``closed``
    with ``np.isin``; over cubes larger than the cap the result can grow
    to 2^n, so after each block the closed members plus the round's
    distinct new products are counted against :data:`CLOSURE_CAP`, and
    EnumerationLimitError is raised before the next block once they
    exceed it.
    """
    if not len(ms):
        return ms
    gens = ms.bits_array
    closed = frontier = gens
    seen = None
    rows = max(1, _BLOCK // gens.size)
    while frontier.size:
        if seen is None:
            seen = _flag_table(closed, ms.n, frontier.size * gens.size)
        fresh, size = [], closed.size
        for lo in range(0, frontier.size, rows):
            cand = np.bitwise_and.outer(frontier[lo:lo + rows], gens)
            if seen is not None:
                fresh.append(_unique(cand[~seen[cand.view(np.intp)]]))
                seen[fresh[-1].view(np.intp)] = True
                continue
            cand = _unique(cand)
            fresh.append(cand[~np.isin(cand, closed, assume_unique=True)])
            size += fresh[-1].size
            if size > CLOSURE_CAP:
                # Blocks may repeat a product: count the distinct ones.
                fresh = [_unique(np.concatenate(fresh))]
                size = closed.size + fresh[0].size
                if size > CLOSURE_CAP:
                    raise EnumerationLimitError(
                        f"AND-closure reached {size} members, over the cap of {CLOSURE_CAP}",
                        needed=size, cap=CLOSURE_CAP,
                    )
        frontier = np.concatenate(fresh) if seen is not None else _unique(np.concatenate(fresh))
        closed = np.concatenate((closed, frontier))
    return ModelSet.from_bits(ms.n, closed)


def _characteristic(ms: ModelSet) -> tuple[np.ndarray, bool]:
    """The meet-irreducible members of ``ms`` (those that are not the AND of
    the strictly greater members) and whether ``ms`` is AND-closed.

    A single-bit cover of member m is a member equal to m with one more
    bit on.  Two of them, ``m | 1 << i`` and ``m | 1 << j``, AND to m, so a
    member with two is reducible, and the meet-irreducible members (kept)
    lie among the candidates, the members with at most one: kept is a
    subset of the candidates, a subset of M.  When :func:`_flag_table`
    builds the 2^n-byte flag array of the members for |M| x n lookups,
    the candidates come from one pass of those lookups, ``m | 1 << i``
    for every bit i, in blocks of :data:`_BLOCK` elements: m itself
    answers for each of its on bits, so m has two covers exactly when
    more than popcount(m) + 1 lookups hit.  Without the table every member
    is a candidate: by ``np.isin``, which sorts, the filter made
    extraction up to three times slower at n = 24 to 40.

    Extraction then visits the candidates level by level, highest popcount
    first, and keeps candidate m iff m is the all-ones vector or the AND of
    the members kept so far that lie above m differs from m (all-ones when
    there are none).  Only members of higher popcount lie strictly above
    m, so a level, a slice of the one popcount-sorted candidate array, is
    tested in one vectorised step against the members kept at the levels
    before it: ``g & m == m`` selects them and a masked
    ``bitwise_and.reduce`` ANDs them, in row blocks of :data:`_BLOCK`
    elements.  That is O(|candidates| x |kept|) word operations, no
    floating-point matrix.

    Why this keeps the meet-irreducible members, closed set or not.  By
    induction from the top level down, every member is the AND of the kept
    members above it (itself included): a kept member is its own, and a
    member not kept equals the AND of the kept members strictly above it
    (a member that is no candidate is the AND of its two covers).  So
    each member x strictly above m is the AND of kept members strictly
    above m, and the AND of all members strictly above m equals the AND of
    the kept ones: the level test is the definitional one.  Skipping a
    member that is no candidate removes no kept member, so the kept
    members above each candidate, and the test, are what they would be
    with every member visited.

    The closure check then tests every ``m & g`` for m a member and g kept:
    since every b is the AND of kept members, ``a & b`` is a chain of such
    single steps starting from ``a``, so the set is closed iff each step
    stays in it.  O(|M| x |kept|) pairs, in blocks of :data:`_BLOCK`, and
    stops at the first block with a product outside the set; with the
    filter, O(|M| x (n + |kept|)) in all.  A product's membership is one
    ``intp`` lookup in the flag array, built for the filter or, failing
    that, by :func:`_flag_table` for the check's |M| x |kept| lookups (2^n
    at most :data:`CLOSURE_CAP`, read at call time); otherwise it is
    ``np.isin``.
    """
    arr, n = ms.bits_array, ms.n
    if not arr.size:
        return arr, True
    full = np.uint64((1 << n) - 1)
    pop = _bit_rows(arr, n).sum(axis=1)   # numpy 1.24 has no bitwise_count
    flags = _flag_table(arr, n, arr.size * n)
    order = np.arange(arr.size)
    if flags is not None:
        # One row of lookups per bit, summed down the columns.
        bits = (np.uint64(1) << np.arange(n, dtype=np.uint64))[:, None]
        rows = max(1, _BLOCK // n)
        order = np.flatnonzero(np.concatenate([
            flags[(bits | arr[lo:lo + rows]).view(np.intp)].sum(axis=0, dtype=np.uint8) <= pop[lo:lo + rows] + 1
            for lo in range(0, arr.size, rows)]))
    order = order[np.argsort(pop[order])[::-1]]
    ranked = arr[order]
    cuts = (np.flatnonzero(np.diff(pop[order])) + 1).tolist()
    gens = arr[:0]
    for start, stop in zip([0] + cuts, cuts + [ranked.size]):
        rows = max(1, _BLOCK // max(1, gens.size))
        kept = [gens]
        for lo in range(start, stop, rows):
            m = ranked[lo:min(lo + rows, stop)]
            # With no generator above m the meet (all 64 bits on) differs
            # from m unless m is all-ones, kept anyway.
            col = m[:, None]
            meet = _meet_rows(gens, (gens & col) == col)
            kept.append(m[(meet != m) | (m == full)])
        gens = np.concatenate(kept)
    if flags is None:  # the check's lookups may pay where the filter's did not
        flags = _flag_table(arr, n, arr.size * gens.size)
    rows = max(1, _BLOCK // gens.size)
    for lo in range(0, arr.size, rows):
        prod = np.bitwise_and.outer(arr[lo:lo + rows], gens)
        if not (np.isin(prod, arr) if flags is None else flags[prod.view(np.intp)]).all():
            return gens, False
    return gens, True


def is_intersection_closed(ms: ModelSet) -> bool:
    """Check closure under AND without materialising the closure.

    Extracts the meet-irreducible members level by level and checks that
    ANDing every member with each of them stays in the set, O(|M| x
    (n + |extracted|)) in all, n lookups per member for the single-bit
    cover filter; that suffices whether or not the set is closed, since
    every member is the AND of the extracted members above it (see
    :func:`_characteristic`).
    """
    return _characteristic(ms)[1]


def characteristic_set(ms: ModelSet) -> ModelSet:
    """Extract the extreme members of an AND-closed model set.

    A member is characteristic when it is not the AND of other members;
    equivalently, the AND of all strictly greater members differs from it.
    A member with two single-bit covers (members equal to it with one more
    bit on) is their AND, so with a 2^n-byte flag array of the members
    (:func:`_flag_table`, n <= 24) one pass of |M| x n lookups drops
    those first.  The rest are visited level by level, highest popcount
    first, and a member is kept iff it is the all-ones vector or the AND of
    the members already kept above it differs from it, which is the same
    test (:func:`_characteristic` has the proof), at O(|M| x (n +
    |charset|)) word operations.  The input must be AND-closed (it is
    meant to be the full model set of a Horn theory), otherwise ValueError
    is raised; closure is checked in one pass against the kept members, by
    lookup in the flag array when there is one, else by ``np.isin``.
    """
    gens, closed = _characteristic(ms)
    if not closed:
        raise ValueError("model set is not closed under intersection")
    return ModelSet.from_bits(ms.n, gens)
