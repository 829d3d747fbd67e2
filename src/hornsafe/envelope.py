"""Deduction against the Horn envelope of an alpha-exterior.

Exteriors of Horn theories are generally not Horn, which forfeits the cheap
query machinery.  The Horn envelope is the least Horn upper bound: its model
set is the AND-closure of the exterior's.  Remarkably, deduction against it
is easy from characteristic models, because the closure of the union of
member neighborhoods is generated by the members themselves:

``envelope(exterior(Sigma, alpha)) |= c`` holds iff

* (i) every characteristic model v has at least alpha off-bits inside N(c)
  (otherwise v can be pushed into the falsifying cone of c within alpha
  flips), and
* (ii) the members with exactly alpha off-bits inside N(c), if any, do not
  jointly cover P(c) with their off sets (otherwise an AND of their pushed
  copies falsifies c).

:func:`deduce_envelope_charset` evaluates this in one pass.  The
formula-based :func:`deduce_envelope_formula` applies the same two
conditions with "characteristic model" replaced by "model", realised as one
satisfiability probe per subset of N(c) of the two relevant sizes; the
minimal model per branch has the largest off set, so it alone decides
coverage.  Both routes build their NO witnesses with the same helpers: a
condition-(i) model goes through :func:`~hornsafe.exterior._falsifier_near`,
and condition (ii) is checked, and its witness built, by
:func:`_cover_witness`.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
    _check_query,
)
from .engine import propagator
from .exterior import SUBSET_CAP, _falsifier_near


def _cover_witness(models: list[int], c: Clause, n: int) -> Optional[Model]:
    """Condition (ii): an envelope model falsifying ``c``, or None.

    ``models`` are the base models with exactly alpha off-bits inside N(c)
    (charset members, or one minimal model per branch).  None when there
    are none or their off sets miss some index of P(c); otherwise the AND,
    over each j in P(c), of the first model with x_j off (just the first
    model when P(c) is empty), with N(c) set.
    """
    if not models:
        return None
    witness_bits = (1 << n) - 1 if c.pos else models[0]
    for j in c.pos:
        bit = 1 << (j - 1)
        donor = next((b for b in models if not b & bit), None)
        if donor is None:
            return None  # no off set contains x_j
        witness_bits &= donor
    return Model(n, witness_bits | c.neg_mask)


def deduce_envelope_charset(charset: ModelSet, c: Clause, alpha: int) -> Decision:
    """Decide whether the Horn envelope of the alpha-exterior entails ``c``.

    One pass over the charset, O(n |charset|).  A NO from condition (i)
    reports the offending member in the trace; both NO branches attach a
    countermodel from the envelope.
    """
    n = charset.n
    _check_query(c, alpha, n)
    full = (1 << n) - 1
    neg_bits = c.neg_mask
    boundary: list[int] = []  # members with exactly alpha off-bits inside N(c)
    for m in charset.bits_array.tolist():
        off_in_neg = (~m & neg_bits & full).bit_count()
        if off_in_neg < alpha:
            # Per-index copies of m (missing N(c) bits set, one P(c) bit
            # cleared) stay inside the alpha-neighborhood; their AND is an
            # envelope model falsifying c.
            return Decision(False, witness=_falsifier_near(m, c, n), trace=(Model(n, m),))
        if off_in_neg == alpha:
            boundary.append(m)
    witness = _cover_witness(boundary, c, n)
    if witness is not None:
        return Decision(False, witness=witness)
    return Decision(True)


def deduce_envelope_formula(
    t: HornTheory, c: Clause, alpha: int, cap: int = SUBSET_CAP
) -> Decision:
    """Decide whether the Horn envelope of the alpha-exterior entails ``c``.

    Step 1 searches for a model of ``t`` with fewer than alpha off-bits in
    N(c): one satisfiability probe per subset of N(c) of size
    ``|N(c)| - alpha + 1`` (a single unconstrained probe when that is
    negative; no probe at all at alpha = 0).  Any hit answers NO.

    Step 2 gathers, over subsets of size ``|N(c)| - alpha`` (none when
    alpha > |N(c)|), the minimal model of each satisfiable branch; NO iff
    their off sets cover P(c) (:func:`_cover_witness`).  Unsatisfiable
    branches contribute nothing.
    """
    n = t.n
    _check_query(c, alpha, n)
    prop = propagator(t)
    nlist = sorted(c.neg)
    nn = len(nlist)

    size1 = nn - alpha + 1
    if size1 <= nn:
        size1 = max(size1, 0)
        if comb(nn, size1) > cap:
            raise EnumerationLimitError(f"step-1 enumeration exceeds the cap of {cap}")
        for sub in combinations(nlist, size1):
            v = prop.minimal_model(sub)
            if v is not None:
                return Decision(False, witness=_falsifier_near(v.bits, c, n), trace=(v,))

    branch_models: list[int] = []
    if alpha <= nn:
        if comb(nn, nn - alpha) > cap:
            raise EnumerationLimitError(f"step-2 enumeration exceeds the cap of {cap}")
        for sub in combinations(nlist, nn - alpha):
            v = prop.minimal_model(sub)
            if v is not None:
                branch_models.append(v.bits)
    witness = _cover_witness(branch_models, c, n)
    if witness is not None:
        return Decision(False, witness=witness)
    return Decision(True)
