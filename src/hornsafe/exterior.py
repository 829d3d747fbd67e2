"""Deduction for alpha-exteriors of Horn knowledge bases.

The alpha-exterior keeps every model within Hamming distance alpha of some
model of the base, so entailment from it is the cautious reading of a query:
it must hold even for assignments that only weakly satisfy the base.

Deduction rests on the duality ``exterior(t, alpha) |= c`` iff
``t |= interior(c, alpha)``, i.e. the base must entail every subclause of
``c`` of size ``|c| - alpha``.  Grouping subclauses by their negative part
turns this into a counting criterion: for each S subset of N(c) with
``|S| >= |N(c)| - alpha``, at least ``alpha - |N(c)| + |S| + 1`` positive
indices j of c must satisfy ``t |= (OR_{i in S} ~x_i) or x_j``.  For a Horn
base all those entailments are read off one unit propagation fixing S true:
the good j are the positive indices forced on, and an unsatisfiable fix
discharges the whole group (the purely negative subclause is entailed, and
with it every extension).

The model-based side replaces propagation with member intersections.  Two
symmetric enumerations are available: over subsets of N(c) (mirroring the
formula route) or over subsets of P(c) with candidate maximal models built
from member tuples; ``method="auto"`` picks the smaller predicted one.
Either way the work is exponential only in alpha / the enumerated side of
the clause, matching the known tractable cases.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
    index_mask,
)
from .engine import min_model_above, propagator

SUBSET_CAP = 1 << 20


def _falsifier_near(model_bits: int, c: Clause, n: int) -> Model:
    """Countermodel for a failed group: push the base model into the
    falsifying cone of ``c``.  The flip count is bounded by alpha whenever
    the group's counting condition failed, so the result lies in the
    exterior and falsifies ``c``."""
    return Model(n, (model_bits | c.neg_mask) & ~c.pos_mask)


def deduce_exterior_formula(
    t: HornTheory, c: Clause, alpha: int, cap: int = SUBSET_CAP
) -> Decision:
    """Decide whether the alpha-exterior of ``t`` entails ``c``.

    Enumerates S subsets of N(c) through complements of size <= alpha, runs
    one propagation per S, and applies the counting criterion described in
    the module docstring.  ``alpha >= |c|`` collapses the query: the
    interior of ``c`` is then unsatisfiable, so only an unsatisfiable base
    entails it.  NO answers carry a countermodel from the exterior.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if c.width > t.n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={t.n}")
    prop = propagator(t)
    if alpha >= len(c):
        base = prop.minimal_model()
        if base is None:
            return Decision(True)
        return Decision(False, witness=_falsifier_near(base.bits, c, t.n))
    nlist = sorted(c.neg)
    nn = len(nlist)
    total = sum(comb(nn, p) for p in range(min(alpha, nn) + 1))
    if total > cap:
        raise EnumerationLimitError(
            f"{total} subsets of N(c) to enumerate (cap {cap}); "
            "consider the charset route or the enumeration oracle"
        )
    pos_bits = c.pos_mask
    for drop in range(min(alpha, nn) + 1):
        for removed in combinations(nlist, drop):
            s = frozenset(nlist) - frozenset(removed)
            vmin = prop.minimal_model(s)
            if vmin is None:
                continue  # the purely negative subclause over S is entailed
            need = alpha - nn + len(s) + 1
            good = (vmin.bits & pos_bits).bit_count()
            if good < need:
                return Decision(False, witness=_falsifier_near(vmin.bits, c, t.n))
    return Decision(True)


def _predicted_neg_count(c: Clause, alpha: int) -> int:
    nn = len(c.neg)
    return sum(comb(nn, p) for p in range(min(alpha, nn) + 1))


def _predicted_pos_count(c: Clause, alpha: int, k: int) -> int:
    pn = len(c.pos)
    total = 0
    for s in range(max(0, pn - alpha), pn + 1):
        total += comb(pn, s) * (k ** s if s else 1)
        if total > (1 << 62):
            break
    return total


def deduce_exterior_charset(
    charset: ModelSet,
    c: Clause,
    alpha: int,
    method: str = "auto",
    cap: int = SUBSET_CAP,
) -> Decision:
    """Decide whether the alpha-exterior of the represented theory entails ``c``.

    ``method`` selects the enumeration side: ``"neg"`` walks subsets of
    N(c) and intersects charset members above each fixed vector; ``"pos"``
    walks subsets S of P(c) and checks every maximal base model whose off
    set meets P(c) exactly in S, generating those as intersections of member
    tuples.  ``"auto"`` picks the side with the smaller predicted
    enumeration.  The empty charset is the inconsistent theory and entails
    everything.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if method not in ("neg", "pos", "auto"):
        raise ValueError(f"unknown method {method!r}")
    n = charset.n
    if c.width > n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={n}")
    if not len(charset):
        return Decision(True)
    if alpha >= len(c):
        base = int(np.bitwise_and.reduce(charset.bits_array))
        return Decision(False, witness=_falsifier_near(base, c, n))
    if method == "auto":
        method = (
            "neg"
            if _predicted_neg_count(c, alpha) <= _predicted_pos_count(c, alpha, len(charset))
            else "pos"
        )
    if method == "neg":
        return _exterior_charset_neg(charset, c, alpha, cap)
    return _exterior_charset_pos(charset, c, alpha, cap)


def _exterior_charset_neg(charset: ModelSet, c: Clause, alpha: int, cap: int) -> Decision:
    n = charset.n
    if _predicted_neg_count(c, alpha) > cap:
        raise EnumerationLimitError(f"subset enumeration exceeds the cap of {cap}")
    nlist = sorted(c.neg)
    nn = len(nlist)
    pos_bits = c.pos_mask
    for drop in range(min(alpha, nn) + 1):
        for removed in combinations(nlist, drop):
            s = frozenset(nlist) - frozenset(removed)
            w = min_model_above(charset, Model(n, index_mask(s)))
            if w is None:
                continue
            need = alpha - nn + len(s) + 1
            good = (w.bits & pos_bits).bit_count()
            if good < need:
                return Decision(False, witness=_falsifier_near(w.bits, c, n))
    return Decision(True)


def _exterior_charset_pos(charset: ModelSet, c: Clause, alpha: int, cap: int) -> Decision:
    n = charset.n
    full = (1 << n) - 1
    members = [m.bits for m in charset]
    plist = sorted(c.pos)
    pn = len(plist)
    pos_bits = c.pos_mask
    neg_bits = c.neg_mask
    work = 0
    for ssize in range(max(0, pn - alpha), pn + 1):
        need = alpha - pn + ssize + 1
        for s in combinations(plist, ssize):
            smask = index_mask(s)
            if not s:
                candidates = {w for w in members if not (~w & pos_bits)}
            else:
                # One pool per index of S: members turning it off while
                # staying inside the S slice of P(c).  The tuple intersections
                # are accumulated pool by pool with deduplication, which keeps
                # the work proportional to the distinct partial ANDs.
                pools = []
                for i in s:
                    bit = 1 << (i - 1)
                    pool = [
                        w for w in members
                        if not w & bit and not (~w & pos_bits) & ~smask
                    ]
                    if not pool:
                        break
                    pools.append(pool)
                if len(pools) < ssize:
                    continue  # no base model has exactly this off-pattern on P(c)
                acc = {full}
                for pool in pools:
                    work += len(acc) * len(pool)
                    if work > cap:
                        raise EnumerationLimitError(
                            f"tuple enumeration exceeds the cap of {cap}"
                        )
                    acc = {a & w for a in acc for w in pool}
                candidates = acc
            for w in candidates:
                if ~w & pos_bits != smask:
                    raise RuntimeError("candidate left its S slice")
                off_in_neg = (~w & neg_bits & full).bit_count()
                if off_in_neg < need:
                    return Decision(False, witness=_falsifier_near(w, c, n))
    return Decision(True)
