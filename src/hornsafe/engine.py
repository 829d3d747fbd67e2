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

from typing import Iterable, Optional

import numpy as np

from .core import Clause, Decision, HornTheory, Model, ModelSet, _unique, index_mask


class HornPropagator:
    """Propagation index of one Horn theory, and unit propagation over it.

    Clauses are viewed as rules ``body -> head`` with the body being the
    negative index set; a clause with no positive literal is a pure
    constraint whose fully-true body is a conflict.  The index records, per
    clause id (input order), the head (0 when there is no positive literal)
    and the body size; per variable, the ids of the clauses whose body
    contains it, ascending (occurrence lists); and the ids of the clauses
    with an empty body (``facts``).

    The one builder reads the theory's flat arrays
    (:class:`~hornsafe.core.FlatClauses`), parsed or derived from clauses:
    one sort of (variable, clause id) pairs lays out every occurrence list
    at once, as MiniSat's (Een & Sorensson, 2003).  The index keeps no
    reference to the theory, so it never holds a theory alive.  Each
    :meth:`minimal_model` call copies the body sizes, seeds from the fact
    list and then touches only the occurrence lists of variables it sets
    true: O(theory size + n) at worst (Dowling & Gallier, 1984).  Routes
    take the index through :func:`propagator`, which builds it once per
    theory.

    ``interior_bases`` maps alpha to the query-independent part of the
    alpha-interior deduction (:func:`hornsafe.interior.interior_base`),
    filled on the first interior query at that alpha; a base is published
    only once fully built.
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
        self.facts: list[int] = np.flatnonzero(sizes == 0).tolist()  # clause ids with an empty body
        self.interior_bases: dict = {}                   # alpha -> interior.InteriorBase

    def minimal_model(
        self,
        forced_true: Iterable[int] = (),
        forced_false: Iterable[int] = (),
    ) -> Optional[Model]:
        """Unique minimal model of the theory with the given variables pinned.

        Returns None when the constrained theory is unsatisfiable.
        """
        n = self.n
        state = bytearray(n + 1)  # 0 unseen, 1 true, 2 pinned false
        for i in forced_false:
            if not 1 <= i <= n:
                raise ValueError(f"forced index {i} out of range (n={n})")
            state[i] = 2
        trues: list[int] = []
        for i in forced_true:
            if not 1 <= i <= n:
                raise ValueError(f"forced index {i} out of range (n={n})")
            if state[i] == 2:
                return None
            if state[i] == 0:
                state[i] = 1
                trues.append(i)

        counters = self.body_sizes.copy()
        heads = self.heads
        occ = self.occ
        pending = list(trues)
        # Clauses whose body is empty fire immediately.
        for k in self.facts:
            h = heads[k]
            if h == 0:
                return None  # empty clause in the theory
            if state[h] == 2:
                return None
            if state[h] == 0:
                state[h] = 1
                trues.append(h)
                pending.append(h)
        while pending:
            i = pending.pop()
            for k in occ.get(i, ()):
                counters[k] -= 1
                if counters[k] == 0:
                    h = heads[k]
                    if h == 0:
                        return None  # negative clause with fully-true body
                    if state[h] == 2:
                        return None
                    if state[h] == 0:
                        state[h] = 1
                        trues.append(h)
                        pending.append(h)
        return Model(n, index_mask(trues))


def propagator(t: HornTheory) -> HornPropagator:
    """The propagation index of ``t``: built on first use, then kept on ``t``.

    The index is stored in the theory object's own attribute dictionary, so
    the lookup goes by object identity and never through the value hash of
    :class:`~hornsafe.core.HornTheory`, which would hash every clause.  Two
    threads racing on the first use may each build one; an index is
    published only once fully built, and either serves.  Equal theories
    parsed separately each build their own.
    """
    try:
        return t.__dict__["_propagator"]
    except KeyError:
        prop = HornPropagator(t)
        object.__setattr__(t, "_propagator", prop)
        return prop


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
    satisfiable with N(c) pinned true and P(c) pinned false; the minimal
    such model is the countermodel reported on NO.
    """
    if c.width > t.n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={t.n}")
    m = minimal_model(t, c.neg, c.pos)
    if m is None:
        return Decision(True)
    return Decision(False, witness=m)


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


def charset_entails(charset: ModelSet, c: Clause) -> Decision:
    """Decide entailment of ``c`` from a characteristic set in O(n |charset|).

    Let ``v*`` be the minimal vector falsifying ``c`` (exactly N(c) true).
    The theory entails ``c`` iff the minimal model above ``v*`` is absent or
    satisfies ``c``; otherwise that model is the countermodel.
    """
    if c.width > charset.n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={charset.n}")
    w = min_model_above(charset, Model(charset.n, c.neg_mask))
    if w is None:
        return Decision(True)
    # w >= v*, so only a positive index of c can still satisfy it.
    if w.bits & c.pos_mask:
        return Decision(True)
    return Decision(False, witness=w)


_BLOCK = 1 << 22  # elements per pairwise block (32 MB of uint64)


def intersection_closure(ms: ModelSet) -> ModelSet:
    """Smallest superset of ``ms`` closed under componentwise AND.

    Semi-naive evaluation: ``closed`` and the first frontier are the
    distinct members (the generators); each round ANDs only the frontier
    with the generators, and the products not yet in ``closed`` become the
    next frontier.  Every element of the closure is the AND of some k
    generators, hence is reached by round k, and each element is ANDed with
    the generators once: O(|closure| x |generators|) pairs in blocks of
    :data:`_BLOCK`.  The result can grow to 2^n, so callers at large ``n``
    are expected to keep their sets small.
    """
    if not len(ms):
        return ms
    gens = _unique(ms.bits_array)
    closed = frontier = gens
    rows = max(1, _BLOCK // gens.size)
    while frontier.size:
        fresh = []
        for lo in range(0, frontier.size, rows):
            cand = _unique(np.bitwise_and.outer(frontier[lo:lo + rows], gens))
            fresh.append(cand[~np.isin(cand, closed, assume_unique=True)])
        frontier = _unique(np.concatenate(fresh))
        closed = np.concatenate((closed, frontier))
    return ModelSet.from_bits(ms.n, closed.tolist())


def _characteristic(ms: ModelSet) -> tuple[np.ndarray, bool]:
    """The extracted members of ``ms`` and whether ``ms`` is AND-closed.

    Extraction keeps member m iff m is the all-ones vector, or for some bit
    i with m_i = 0 no other member x >= m has x_i = 0.  That is the
    definitional rule (m is not the AND of the strictly greater members,
    maximal members kept): the AND of the members above m differs from m
    exactly at the bits no other member above m turns off.  Both counts are
    float32 matrix products over the members' 0/1 bit matrices, one per row
    block: x >= m iff no bit is on in m and off in x, and then the members
    x >= m with x_i = 0 are counted per bit i.  Only "count == 0" and
    "count == 1" are read, which a float sum of 0/1 products gets exactly
    at any size.

    The closure check then tests every ``m & g`` for m a member and g an
    extracted member: every member is the AND of the extracted members above
    it (induction downward from the maximal members), so ``a & b`` is a chain
    of such single steps starting from ``a``.  O(|M|^2 n) for the extraction
    and O(|M| x |extracted|) for the check, both in blocks of :data:`_BLOCK`.
    """
    arr = _unique(ms.bits_array)
    if not arr.size:
        return arr, True
    ones = (arr[:, None] >> np.arange(ms.n, dtype=np.uint64) & np.uint64(1)).astype(np.float32)
    zeros = 1 - ones
    rows = max(1, _BLOCK // arr.size)
    keep = arr == np.uint64((1 << ms.n) - 1)
    for lo in range(0, arr.size, rows):
        above = ones[lo:lo + rows] @ zeros.T == 0   # above[k, x]: member x >= member lo+k
        keep[lo:lo + rows] |= (above.astype(np.float32) @ zeros == 1).any(axis=1)
    gens = arr[keep]
    rows = max(1, _BLOCK // gens.size)
    closed = all(
        np.isin(np.bitwise_and.outer(arr[lo:lo + rows], gens), arr).all()
        for lo in range(0, arr.size, rows)
    )
    return gens, closed


def is_intersection_closed(ms: ModelSet) -> bool:
    """Check closure under AND without materialising the closure.

    Extracts the characteristic members and checks that ANDing every member
    with each of them stays in the set (see :func:`_characteristic` for why
    that suffices).
    """
    return _characteristic(ms)[1]


def characteristic_set(ms: ModelSet) -> ModelSet:
    """Extract the extreme members of an AND-closed model set.

    A member is characteristic when it is not the AND of other members;
    equivalently, the AND of all strictly greater members differs from it.
    It is kept iff it is the all-ones vector or, for some bit it turns off,
    no other member above it turns that bit off.  The input must be
    AND-closed (it is meant to be the full model set of a Horn theory),
    otherwise ValueError is raised; closure is checked in one pass against
    the extracted members (:func:`_characteristic`).
    """
    gens, closed = _characteristic(ms)
    if not closed:
        raise ValueError("model set is not closed under intersection")
    return ModelSet.from_bits(ms.n, gens.tolist())
