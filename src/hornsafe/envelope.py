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

Both routes run this one test, :func:`_envelope_test`, over a sequence of
base models; only the source of the models differs.
:func:`deduce_envelope_charset` passes the characteristic models, one
linear pass.  :func:`deduce_envelope_formula` passes the minimal models of
satisfiability probes, one per subset of N(c) of two sizes, produced
lazily so that a condition-(i) NO ends the probing; its docstring proves
that the two conditions read the same on those models.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable

from .core import Clause, Decision, EnumerationLimitError, HornTheory, Model, ModelSet, _check_query
from .engine import propagator
from .exterior import SUBSET_CAP, _falsifier_near


def _envelope_test(models: Iterable[int], c: Clause, alpha: int, n: int) -> Decision:
    """Conditions (i) and (ii) over the base models ``models``, in order.

    The first model with fewer than alpha off-bits inside N(c) answers NO
    (condition (i)): it is reported in the trace, and its copy pushed into
    the falsifying cone of c (:func:`~hornsafe.exterior._falsifier_near`)
    is the witness; per-index copies of it stay in the alpha-neighborhood
    and AND to that copy.  Otherwise the models with exactly alpha such
    off-bits answer NO when their off sets cover P(c) (condition (ii)), with
    the AND, over each j in P(c), of the first of them with x_j off (just
    the first of them when P(c) is empty), N(c) set, as the witness.
    """
    boundary: list[int] = []  # models with exactly alpha off-bits inside N(c)
    for m in models:
        off_in_neg = (~m & c.neg_mask).bit_count()
        if off_in_neg < alpha:
            return Decision(False, witness=_falsifier_near(m, c, n), trace=(Model(n, m),))
        if off_in_neg == alpha:
            boundary.append(m)
    if not boundary:
        return Decision(True)
    witness_bits = (1 << n) - 1 if c.pos else boundary[0]
    for j in c.pos:
        bit = 1 << (j - 1)
        donor = next((b for b in boundary if not b & bit), None)
        if donor is None:
            return Decision(True)  # no off set contains x_j
        witness_bits &= donor
    return Decision(False, witness=Model(n, witness_bits | c.neg_mask))


def deduce_envelope_charset(charset: ModelSet, c: Clause, alpha: int) -> Decision:
    """Decide whether the Horn envelope of the alpha-exterior entails ``c``.

    :func:`_envelope_test` over the members, O(n |charset|).  A NO from
    condition (i) reports the offending member in the trace; both NO
    branches attach a countermodel from the envelope.
    """
    alpha = _check_query(c, alpha, charset.n)
    return _envelope_test(charset.bits_array.tolist(), c, alpha, charset.n)


def deduce_envelope_formula(
    t: HornTheory, c: Clause, alpha: int, cap: int = SUBSET_CAP
) -> Decision:
    """Decide whether the Horn envelope of the alpha-exterior entails ``c``.

    :func:`_envelope_test` over the minimal models of the satisfiable
    probes, one probe per subset of N(c), produced lazily in two steps:

    * step 1, only when alpha >= 1: subsets of size
      ``max(|N(c)| - alpha + 1, 0)`` (one unconstrained probe when
      alpha > |N(c)|);
    * step 2, only when alpha <= |N(c)|: subsets of size ``|N(c)| - alpha``.

    Each step checks its subset count against ``cap`` just before its first
    probe, so a step the test never reaches raises nothing.

    Why this is the charset test with "characteristic model" read as
    "model".  Every step-1 model contains at least |N(c)| - alpha + 1
    variables of N(c), so it has fewer than alpha off-bits there and the
    first one answers NO by condition (i); conversely any model violating
    (i) lies above some step-1 subset, so step 1 finds one.  When step 1
    finds none, every step-2 model has exactly alpha off-bits in N(c): one
    with fewer would contain a step-1 subset.  The models with exactly
    alpha off-bits are those of the step-2 branches, and the minimal model
    of a branch has the largest off set in it, so the branch minima cover
    P(c) iff all those models do (condition (ii)).  Unsatisfiable branches
    contribute nothing.
    """
    n = t.n
    alpha = _check_query(c, alpha, n)
    prop = propagator(t)
    nlist = sorted(c.neg)
    nn = len(nlist)
    steps = [(1, max(nn - alpha + 1, 0))] if alpha else []
    if alpha <= nn:
        steps.append((2, nn - alpha))

    def probes():
        for step, size in steps:
            if (count := comb(nn, size)) > cap:
                raise EnumerationLimitError(
                    f"step-{step} enumeration exceeds the cap of {cap}", needed=count, cap=cap
                )
            for sub in combinations(nlist, size):
                v = prop.minimal_model(sub)
                if v is not None:
                    yield v.bits

    return _envelope_test(probes(), c, alpha, n)
