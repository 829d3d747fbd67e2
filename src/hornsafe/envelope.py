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
coverage.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
)
from .engine import propagator

SUBSET_CAP = 1 << 20


def deduce_envelope_charset(charset: ModelSet, c: Clause, alpha: int) -> Decision:
    """Decide whether the Horn envelope of the alpha-exterior entails ``c``.

    One pass over the charset, O(n |charset|).  A NO from condition (i)
    reports the offending member in the trace; both NO branches attach a
    countermodel from the envelope.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    n = charset.n
    if c.width > n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={n}")
    full = (1 << n) - 1
    neg_bits = c.neg_mask
    pos_bits = c.pos_mask
    boundary: list[int] = []  # members with exactly alpha off-bits inside N(c)
    covered = 0
    for m in charset:
        off_in_neg = (~m.bits & neg_bits & full).bit_count()
        if off_in_neg < alpha:
            # Per-index copies of m (missing N(c) bits set, one P(c) bit
            # cleared) stay inside the alpha-neighborhood; their AND is an
            # envelope model falsifying c.
            witness = Model(n, (m.bits | neg_bits) & ~pos_bits)
            return Decision(False, witness=witness, trace=(m,))
        if off_in_neg == alpha:
            boundary.append(m.bits)
            covered |= ~m.bits & pos_bits
    if boundary and covered == pos_bits:
        witness_bits = full
        if c.pos:
            for j in sorted(c.pos):
                bit = 1 << (j - 1)
                donor = next(b for b in boundary if not b & bit)
                witness_bits &= donor | neg_bits
        else:
            witness_bits = boundary[0] | neg_bits
        return Decision(False, witness=Model(n, witness_bits))
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
    alpha > |N(c)|), the positive indices of ``c`` switched off by each
    branch's minimal model; NO iff at least one branch was satisfiable and
    those indices cover P(c).  Unsatisfiable branches contribute nothing.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if c.width > t.n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={t.n}")
    n = t.n
    full = (1 << n) - 1
    prop = propagator(t)
    nlist = sorted(c.neg)
    nn = len(nlist)
    neg_bits = c.neg_mask
    pos_bits = c.pos_mask

    size1 = nn - alpha + 1
    if size1 <= nn:
        size1 = max(size1, 0)
        if comb(nn, size1) > cap:
            raise EnumerationLimitError(f"step-1 enumeration exceeds the cap of {cap}")
        for sub in combinations(nlist, size1):
            v = prop.minimal_model(sub)
            if v is not None:
                witness = Model(n, (v.bits | neg_bits) & ~pos_bits)
                return Decision(False, witness=witness, trace=(v,))

    any_sat = False
    covered = 0
    branch_models: list[int] = []
    if alpha <= nn:
        if comb(nn, nn - alpha) > cap:
            raise EnumerationLimitError(f"step-2 enumeration exceeds the cap of {cap}")
        for sub in combinations(nlist, nn - alpha):
            v = prop.minimal_model(sub)
            if v is None:
                continue
            any_sat = True
            branch_models.append(v.bits)
            covered |= ~v.bits & pos_bits
    if any_sat and covered == pos_bits:
        witness_bits = full
        if c.pos:
            for j in sorted(c.pos):
                bit = 1 << (j - 1)
                donor = next(b for b in branch_models if not b & bit)
                witness_bits &= donor | neg_bits
        else:
            witness_bits = branch_models[0] | neg_bits
        return Decision(False, witness=Model(n, witness_bits))
    return Decision(True)
