"""Reference semantics the benchmark checks answers against.

Nothing here imports the package under test.  Three independent oracles:

* :class:`RefTheory` -- forward chaining over a Horn CNF, generalised to the
  alpha-interior: a clause with ``k`` body variables still outside the
  current set derives its head once ``k <= alpha`` and is violated once
  ``k <= alpha - 1`` (or ``k <= alpha`` for a negative clause), which is
  forward chaining over every subclause of ``|d| - alpha`` literals.
  Exterior and envelope answers follow from the definitions:
  ``exterior |= c`` iff the theory entails every subclause of ``c`` with
  ``|c| - alpha`` literals, and the Horn envelope entails ``c`` iff the
  exterior entails one Horn strengthening of ``c``.
* :class:`BlockOracle` -- exact model sets of a product of small blocks,
  with per-block Hamming-distance tables, for characteristic-model KBs.
* :func:`enumerate_models` -- all models of a small theory, by brute force.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

import numpy as np

HornClause = tuple[int, tuple[int, ...]]
Query = tuple[tuple[int, ...], tuple[int, ...]]


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def subclauses(q: Query, size: int) -> list[Query]:
    """Every subclause of ``q`` keeping exactly ``size`` literals."""
    lits = [-i for i in q[0]] + list(q[1])
    out = []
    for keep in combinations(lits, size):
        out.append((tuple(-l for l in keep if l < 0), tuple(l for l in keep if l > 0)))
    return out


def horn_strengthenings(q: Query) -> list[Query]:
    neg, pos = q
    return [(neg, ())] + [(neg, (j,)) for j in pos]


class RefTheory:
    """Forward chaining over one Horn CNF, at alpha 0 and for its interiors."""

    def __init__(self, n: int, clauses: list[HornClause]):
        self.n = n
        self.heads = [h for h, _ in clauses]
        self.sizes = [len(b) for _, b in clauses]
        self.bodies = [b for _, b in clauses]
        self.occ: list[list[int]] = [[] for _ in range(n + 1)]
        owner = []
        for k, (_, body) in enumerate(clauses):
            for i in body:
                self.occ[i].append(k)
            owner.extend([k] * len(body))
        self._body = np.fromiter((i for _, b in clauses for i in b), dtype=np.int64)
        self._owner = np.asarray(owner, dtype=np.int64)
        self._base: dict[int, Optional[tuple[frozenset[int], list[int]]]] = {}
        self._closures: dict[tuple[int, frozenset[int]], Optional[frozenset[int]]] = {}

    def _fires(self, k: int, missing: int, alpha: int) -> tuple[bool, int]:
        """(violated, derived head or 0) for clause ``k`` with ``missing``
        body variables outside the current set."""
        if self.heads[k] == 0:
            return missing <= alpha, 0
        if missing <= alpha - 1:
            return True, 0
        if missing <= alpha and self.sizes[k] >= alpha:
            return False, self.heads[k]
        return False, 0

    def _propagate(self, x: set[int], counts, pending: list[int], alpha: int) -> bool:
        """Close ``x`` under the rules; ``counts`` maps clause -> missing count
        and is updated in place.  Returns False on a violated clause."""
        occ = self.occ
        while pending:
            v = pending.pop()
            for k in occ[v]:
                missing = counts[k] - 1
                counts[k] = missing
                bad, head = self._fires(k, missing, alpha)
                if bad:
                    return False
                if head and head not in x:
                    x.add(head)
                    pending.append(head)
        return True

    def _base_state(self, alpha: int):
        if alpha not in self._base:
            counts = list(self.sizes)
            x: set[int] = set()
            pending: list[int] = []
            ok = True
            for k, size in enumerate(self.sizes):
                bad, head = self._fires(k, size, alpha)
                if bad:
                    ok = False
                    break
                if head and head not in x:
                    x.add(head)
                    pending.append(head)
            ok = ok and self._propagate(x, counts, pending, alpha)
            self._base[alpha] = (frozenset(x), counts) if ok else None
        return self._base[alpha]

    def closure(self, start: Iterable[int], alpha: int = 0) -> Optional[frozenset[int]]:
        """Least set containing ``start`` closed under the alpha-interior of
        the theory, or None when no model of the interior contains ``start``."""
        key = (alpha, frozenset(start))
        if key in self._closures:
            return self._closures[key]
        base = self._base_state(alpha)
        result = None
        if base is not None:
            base_x, base_counts = base
            x = set(base_x)
            counts = _Overlay(base_counts)
            pending = [v for v in key[1] if v not in x]
            x.update(pending)
            if self._propagate(x, counts, pending, alpha):
                result = frozenset(x)
        self._closures[key] = result
        return result

    def entails(self, q: Query, alpha: int = 0) -> bool:
        """Does the alpha-interior of the theory entail ``q``?  (alpha 0: the theory.)"""
        if len(q[0]) + len(q[1]) == 0:
            return self.closure((), alpha) is None
        m = self.closure(q[0], alpha)
        return m is None or any(p in m for p in q[1])

    def exterior_entails(self, q: Query, alpha: int) -> bool:
        size = len(q[0]) + len(q[1]) - alpha
        if size <= 0:
            return self.closure(()) is None
        return all(self.entails(s) for s in subclauses(q, size))

    def envelope_entails(self, q: Query, alpha: int) -> bool:
        return any(self.exterior_entails(s, alpha) for s in horn_strengthenings(q))

    def truth(self, kind: str, q: Query, alpha: int) -> bool:
        if kind == "kb":
            return self.entails(q)
        if kind == "interior":
            return self.entails(q, alpha)
        if kind == "exterior":
            return self.exterior_entails(q, alpha)
        return self.envelope_entails(q, alpha)

    # -- witness checks ---------------------------------------------------

    def _true_counts(self, w: int) -> np.ndarray:
        """True literals per clause under model bits ``w``."""
        raw = np.frombuffer(w.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        on = np.unpackbits(raw, bitorder="little")[: self.n].astype(bool)
        on = np.concatenate(([False], on))  # index by 1-based variable
        counts = np.bincount(self._owner, weights=~on[self._body], minlength=len(self.heads))
        heads = np.asarray(self.heads)
        return counts + ((heads > 0) & on[heads])

    def min_true_literals(self, w: int) -> int:
        """Fewest true literals any clause has under model bits ``w``."""
        return int(self._true_counts(w).min()) if self.heads else 1 << 30

    def within(self, w: int, alpha: int) -> bool:
        """Is some model of the theory within Hamming distance alpha of ``w``?
        Bounded search: a model that close must flip one literal of the
        shortest violated clause to true, so branch on those flips."""
        if not self.heads:
            return True
        counts = self._true_counts(w)
        violated = np.flatnonzero(counts == 0)
        if not violated.size:
            return True
        if alpha == 0:
            return False
        k = int(violated[np.argmin(np.asarray(self.sizes)[violated])])
        flips = list(self.bodies[k]) + ([self.heads[k]] if self.heads[k] else [])
        return any(self.within(w ^ (1 << (x - 1)), alpha - 1) for x in flips)

    def in_envelope(self, w: int, q: Query, alpha: int) -> bool:
        """Is ``w`` in the Horn envelope of the alpha-exterior, i.e. the AND
        of the exterior models above it?

        Exact in two cases: at alpha 0 the envelope is the theory itself;
        at alpha >= 1, when a model m lies above ``w``, the copies of m with
        one bit outside ``w`` cleared are exterior models whose AND is
        ``w``.  Otherwise ``w`` must be the AND of exterior models built from
        minimal models above subsets S of N(q), |N(q) - S| <= alpha: the
        model with N(q) switched on, and its copies with one P(q) bit
        cleared, each kept when its distance to the model is at most alpha.
        That covers the constructions the envelope routes use."""
        if alpha == 0:
            return self.min_true_literals(w) >= 1
        if self.closure(i + 1 for i in range(self.n) if w >> i & 1) is not None:
            return True
        neg, pos = q
        nmask = mask_of(neg)
        acc = -1
        for drop in range(min(alpha, len(neg)) + 1):
            for removed in combinations(neg, drop):
                m = self.closure(set(neg) - set(removed))
                if m is None:
                    continue
                mb = mask_of(m)
                base = mb | nmask
                d0 = (base ^ mb).bit_count()
                cands = [base] if d0 <= alpha else []
                if d0 + 1 <= alpha:
                    cands += [base & ~(1 << (j - 1)) for j in pos if base >> (j - 1) & 1]
                for u in cands:
                    if u & w == w:
                        acc &= u
        return acc == w


class _Overlay:
    """Copy-on-write view of a base counter list (touched entries only)."""

    __slots__ = ("base", "delta")

    def __init__(self, base: list[int]):
        self.base = base
        self.delta: dict[int, int] = {}

    def __getitem__(self, k: int) -> int:
        return self.delta.get(k, self.base[k])

    def __setitem__(self, k: int, v: int) -> None:
        self.delta[k] = v


def falsifies(w: int, q: Query) -> bool:
    nm, pm = mask_of(q[0]), mask_of(q[1])
    return w & nm == nm and not w & pm


# ---------------------------------------------------------------------------
# Product of small blocks: exact semantics for characteristic-model KBs.
# ---------------------------------------------------------------------------


def _distance_table(member: np.ndarray, bits: int) -> np.ndarray:
    """Hamming distance from every vector of {0,1}^bits to the member set."""
    inf = bits + 1
    dist = np.where(member, 0, inf).astype(np.int16)
    idx = np.arange(1 << bits)
    while True:
        best = dist.copy()
        for b in range(bits):
            np.minimum(best, dist[idx ^ (1 << b)] + 1, out=best)
        if np.array_equal(best, dist):
            return dist
        dist = best


class Block:
    """One block of a product KB: its model set over ``bits`` variables
    starting at bit ``offset``."""

    def __init__(self, offset: int, bits: int, member: np.ndarray):
        self.offset = offset
        self.bits = bits
        self.member = member
        self.dist = _distance_table(member, bits)       # to the model set
        self.dist_out = _distance_table(~member, bits)  # to its complement
        self.all = np.arange(1 << bits)

    def part(self, mask: int) -> int:
        return mask >> self.offset & ((1 << self.bits) - 1)

    def falsifiers(self, q_neg: int, q_pos: int) -> np.ndarray:
        n_, p_ = self.part(q_neg), self.part(q_pos)
        return (self.all & n_ == n_) & (self.all & p_ == 0)


class BlockOracle:
    """Exact deduction for a KB whose models are the product of the
    blocks' model sets.  The alpha-interior is the product of the block
    interiors; a vector is in the alpha-exterior when its block distances
    sum to at most alpha."""

    def __init__(self, n: int, blocks: list[Block]):
        self.n = n
        self.blocks = blocks

    def _min_dist(self, q: Query) -> int:
        nm, pm = mask_of(q[0]), mask_of(q[1])
        total = 0
        for b in self.blocks:
            f = b.falsifiers(nm, pm)
            if not f.any():
                return 1 << 30
            total += int(b.dist[f].min())
        return total

    def truth(self, kind: str, q: Query, alpha: int) -> bool:
        if kind == "kb":
            return self._min_dist(q) > 0
        if kind == "interior":
            nm, pm = mask_of(q[0]), mask_of(q[1])
            return not all((b.falsifiers(nm, pm) & (b.dist_out > alpha)).any()
                           for b in self.blocks)
        if kind == "exterior":
            return self._min_dist(q) > alpha
        return any(self._min_dist(s) > alpha for s in horn_strengthenings(q))

    def in_target(self, kind: str, w: int, alpha: int) -> bool:
        parts = [(b, b.part(w)) for b in self.blocks]
        if kind == "kb":
            return all(b.member[x] for b, x in parts)
        if kind == "interior":
            return all(b.dist_out[x] > alpha for b, x in parts)
        if kind == "exterior":
            return sum(int(b.dist[x]) for b, x in parts) <= alpha
        # envelope: w is the AND of the exterior vectors above it -- for every
        # bit off in w, one of them has it off (the all-ones w must itself
        # be in the exterior)
        up = [int(b.dist[b.all & x == x].min()) for b, x in parts]
        total = sum(up)
        if total > alpha:
            return False
        for bi, (b, x) in enumerate(parts):
            above = b.all & x == x
            for j in range(b.bits):
                if x >> j & 1:
                    continue
                cost = int(b.dist[above & (b.all >> j & 1 == 0)].min())
                if total - up[bi] + cost > alpha:
                    return False
        return True


def and_above(members: list[int], v: int) -> Optional[int]:
    """AND of the members componentwise >= ``v`` (None when there are none),
    in plain Python: the closure of the members holds ``v`` iff this is ``v``."""
    acc = None
    for m in members:
        if m & v == v:
            acc = m if acc is None else acc & m
    return acc


# ---------------------------------------------------------------------------
# Brute-force enumeration for small theories.
# ---------------------------------------------------------------------------


def enumerate_models(n: int, clauses: list[HornClause]) -> np.ndarray:
    """Sorted bits of every model of a theory over n <= 24 variables."""
    if n > 24:
        raise ValueError("enumeration is meant for n <= 24")
    arr = np.arange(1 << n, dtype=np.uint32)
    for head, body in clauses:
        nm = np.uint32(mask_of(body))
        sat = (arr & nm) != nm
        if head:
            sat |= (arr >> np.uint32(head - 1) & np.uint32(1)).astype(bool)
        arr = arr[sat]
    return arr


def meet_irreducibles(models: np.ndarray) -> np.ndarray:
    """Members of an AND-closed set that are not the AND of strictly greater
    members (the characteristic models), sorted."""
    arr = models.astype(np.uint64)
    keep = []
    for m in arr:
        above = arr[(arr & m == m) & (arr != m)]
        if not above.size or np.bitwise_and.reduce(above) != m:
            keep.append(int(m))
    return np.array(sorted(keep), dtype=np.uint64)


def and_closure(bits: Iterable[int]) -> set[int]:
    """AND-closure of a set of vectors, semi-naively, in plain Python."""
    closed = set(bits)
    frontier = set(closed)
    gens = list(closed)
    while frontier:
        fresh = set()
        for f in frontier:
            for g in gens:
                x = f & g
                if x not in closed:
                    fresh.add(x)
        closed |= fresh
        frontier = fresh
    return closed
